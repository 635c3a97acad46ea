"""Tests for LZR-style detection and interrogation over fake connections."""

import dataclasses
import random
from typing import List, Optional

import pytest

from repro.protocols import (
    Interrogator,
    Probe,
    ProtocolDetector,
    Reply,
    TlsEndpointProfile,
    default_registry,
)
from repro.protocols.base import COMMON_PROBE_KINDS, ServerProfile, reset, silence
from repro.protocols.tlslayer import make_ja4s, tls_server_hello

REGISTRY = default_registry()


class FakeConnection:
    """Connection backed directly by a ServerProfile (no simnet)."""

    def __init__(self, profile: Optional[ServerProfile], port: int, transport: str = "tcp"):
        self.profile = profile
        self.port = port
        self.transport = transport
        self._in_tls = False

    @property
    def in_tls(self):
        return self._in_tls

    def send(self, probe: Probe) -> Reply:
        if self.profile is None:
            return silence()
        if self.profile.tls is not None and not self._in_tls:
            return silence() if probe.kind == "banner-wait" else reset()
        spec = REGISTRY.get(self.profile.protocol)
        return spec.respond(self.profile, probe)

    def start_tls(self):
        if self.profile is None or self.profile.tls is None:
            return None
        self._in_tls = True
        return tls_server_hello(self.profile.tls)


def make_profile(protocol: str, seed: int = 3) -> ServerProfile:
    return REGISTRY.get(protocol).make_profile(random.Random(seed))


def make_tls(names=("x.example",), self_signed=False) -> TlsEndpointProfile:
    return TlsEndpointProfile(
        certificate_sha256="ab" * 32,
        subject_names=tuple(names),
        ja4s=make_ja4s(("f5", "nginx", "1.24.0")),
        self_signed=self_signed,
    )


@pytest.fixture
def detector():
    return ProtocolDetector(REGISTRY)


@pytest.fixture
def interrogator():
    return Interrogator(REGISTRY)


class TestDetection:
    def test_server_initiated_banner_detected_on_any_port(self, detector):
        conn = FakeConnection(make_profile("SSH"), port=48122)
        result = detector.detect(conn)
        assert result.protocol == "SSH"

    def test_iana_assigned_protocol_detected(self, detector):
        conn = FakeConnection(make_profile("MODBUS"), port=502)
        result = detector.detect(conn)
        assert result.protocol == "MODBUS"

    def test_http_detected_via_common_trigger_on_odd_port(self, detector):
        conn = FakeConnection(make_profile("HTTP"), port=48123)
        result = detector.detect(conn)
        assert result.protocol == "HTTP"
        assert result.tls is None

    def test_smtp_identified_from_error_to_http_get(self, detector):
        """The paper's canonical example."""
        conn = FakeConnection(make_profile("SMTP"), port=8080)
        result = detector.detect(conn)
        assert result.protocol == "SMTP"

    def test_tls_wrapped_http_detected_inside_session(self, detector):
        profile = make_profile("HTTP")
        profile.tls = make_tls()
        conn = FakeConnection(profile, port=49001)
        result = detector.detect(conn)
        assert result.protocol == "HTTP"
        assert result.tls is not None
        assert result.tls["ja4s"].startswith("t13d")

    def test_ics_on_nonstandard_port_not_detected_without_assigned_probe(self, detector):
        """Binary ICS stacks ignore generic triggers; off their IANA port
        the detector alone cannot identify them (that is the predictive
        engine's and refresh path's job)."""
        conn = FakeConnection(make_profile("S7"), port=35001)
        result = detector.detect(conn)
        assert result.protocol is None
        assert result.raw_response is None

    def test_silent_endpoint_yields_nothing(self, detector):
        conn = FakeConnection(None, port=80)
        result = detector.detect(conn)
        assert result.protocol is None
        assert result.raw_response is None
        assert not result.identified

    def test_unknown_data_captured_raw(self, detector):
        profile = ServerProfile(protocol="PSEUDO", software=("", "", ""))

        class WeirdConnection(FakeConnection):
            def send(self, probe):
                return Reply("banner", "PSEUDO", {"banner": "\\x00\\x01\\x02"})

        conn = WeirdConnection(profile, port=4444)
        result = detector.detect(conn)
        assert result.protocol is None
        assert result.raw_response == {"banner": "\\x00\\x01\\x02"}

    def test_udp_detection_uses_assigned_protocol_only(self, detector):
        conn = FakeConnection(make_profile("DNS"), port=53, transport="udp")
        result = detector.detect(conn)
        assert result.protocol == "DNS"

    def test_probe_count_is_bounded(self, detector):
        conn = FakeConnection(None, port=9999)
        result = detector.detect(conn)
        assert result.probes_sent <= 8


class TestInterrogation:
    def test_http_record_fields(self, interrogator):
        conn = FakeConnection(make_profile("HTTP"), port=80)
        result = interrogator.interrogate(conn)
        assert result.success
        assert result.service_name == "HTTP"
        assert "http.status" in result.record
        assert "http.html_title" in result.record

    def test_https_service_name_and_tls_fields(self, interrogator):
        profile = make_profile("HTTP")
        profile.tls = make_tls(names=("shop.example",))
        conn = FakeConnection(profile, port=443)
        result = interrogator.interrogate(conn)
        assert result.service_name == "HTTPS"
        assert result.record["tls.certificate_sha256"] == "ab" * 32
        assert result.record["tls.subject_names"] == ("shop.example",)

    def test_ssh_record_has_host_key(self, interrogator):
        conn = FakeConnection(make_profile("SSH"), port=22)
        result = interrogator.interrogate(conn)
        assert result.record["ssh.host_key_sha256"].startswith("SHA256:")

    def test_modbus_completes_device_id_handshake(self, interrogator):
        conn = FakeConnection(make_profile("MODBUS"), port=502)
        result = interrogator.interrogate(conn)
        assert result.protocol == "MODBUS"
        assert "modbus.vendor" in result.record

    def test_failed_interrogation_reports_unsuccessful(self, interrogator):
        conn = FakeConnection(None, port=1234)
        result = interrogator.interrogate(conn)
        assert not result.success
        assert result.service_name is None

    def test_refresh_fast_path_matches_full_interrogation(self, interrogator):
        profile = make_profile("SSH")
        full = interrogator.interrogate(FakeConnection(profile, port=22))
        refreshed = interrogator.refresh(FakeConnection(profile, port=22), "SSH")
        assert refreshed.success
        assert refreshed.protocol == "SSH"
        assert refreshed.record["ssh.host_key_sha256"] == full.record["ssh.host_key_sha256"]

    def test_refresh_detects_protocol_change(self, interrogator):
        """A binding that changed from SSH to HTTP between scans."""
        conn = FakeConnection(make_profile("HTTP"), port=22)
        result = interrogator.refresh(conn, "SSH")
        assert result.protocol == "HTTP"

    def test_refresh_of_tls_service_keeps_tls_fields(self, interrogator):
        profile = make_profile("HTTP")
        profile.tls = make_tls()
        result = interrogator.refresh(FakeConnection(profile, port=443), "HTTP")
        assert result.record.get("tls.ja4s")


class TestDetectionMatrix:
    """Every registered protocol must be identified as itself when probed on
    its default port — the end-to-end correctness property of the scanner
    fleet (Censys only labels what completes a handshake)."""

    @pytest.mark.parametrize("spec", REGISTRY.specs, ids=lambda s: s.name)
    def test_detected_as_self_on_default_port(self, spec, detector):
        if not spec.default_ports:
            pytest.skip(f"{spec.name} has no default port")
        port = spec.default_ports[0]
        # Some configurations legitimately refuse to answer (e.g. SNMP with
        # a non-public community); pick a responsive profile.
        profile = None
        for seed in range(30):
            candidate = spec.make_profile(random.Random(seed))
            replies = [spec.respond(candidate, p) for p in spec.handshake_probes(port)]
            if any(spec.fingerprint(r) for r in replies if r.has_data):
                profile = candidate
                break
        assert profile is not None, f"no responsive {spec.name} profile in 30 seeds"
        conn = FakeConnection(profile, port=port, transport=spec.transport)
        result = detector.detect(conn)
        assert result.protocol == spec.name, (
            f"{spec.name} detected as {result.protocol}"
        )

    @pytest.mark.parametrize("spec", [s for s in REGISTRY.specs if s.server_initiated], ids=lambda s: s.name)
    def test_server_initiated_detected_off_port(self, spec, detector):
        """Banner-first protocols identify themselves on any port."""
        profile = spec.make_profile(random.Random(12))
        conn = FakeConnection(profile, port=48555, transport=spec.transport)
        result = detector.detect(conn)
        assert result.protocol == spec.name


def _all_probes() -> List[Probe]:
    """Every generic trigger plus every spec's handshake, on its own ports."""
    probes = [Probe(kind) for kind in COMMON_PROBE_KINDS]
    probes += list(ProtocolDetector.COMMON_TRIGGERS)
    for spec in REGISTRY.specs:
        for port in tuple(spec.default_ports) or (0,):
            probes += spec.handshake_probes(port)
    return probes


def _reply_corpus(seeds=range(6)) -> List[Reply]:
    """Replies every spec's profiles give to every probe, plain and in TLS."""
    probes = _all_probes()
    replies: List[Reply] = [tls_server_hello(make_tls()), Reply("banner", "PSEUDO", {"banner": "x"})]
    for spec in REGISTRY.specs:
        for seed in seeds:
            plain = dataclasses.replace(spec.make_profile(random.Random(seed)), tls=None)
            wrapped = dataclasses.replace(plain, tls=make_tls())
            for profile in (plain, wrapped):
                conn = FakeConnection(profile, port=0, transport=spec.transport)
                replies += [conn.send(probe) for probe in probes]
                if conn.start_tls() is not None:
                    replies += [conn.send(probe) for probe in probes]
    return [reply for reply in replies if reply.has_data]


class TestKindDispatch:
    """The kind-indexed candidate scan is an exact stand-in for trying every
    fingerprint in the detector's order."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return _reply_corpus()

    def test_candidate_scan_matches_linear_scan(self, corpus):
        detector = ProtocolDetector(REGISTRY)
        kinds = set()
        for reply in corpus:
            kinds.add(reply.kind)
            linear = next((s.name for s in detector._ordered if s.fingerprint(reply)), None)
            indexed = next((s.name for s in detector.candidates(reply.kind) if s.fingerprint(reply)), None)
            assert indexed == linear, (reply.kind, reply.protocol, indexed, linear)
        # The corpus exercises the index broadly, not just a few kinds.
        assert len(kinds) > len(REGISTRY) and len(corpus) > 1000

    def test_declared_kinds_bound_the_fingerprint(self, corpus):
        declared = [s for s in REGISTRY.specs if s.fingerprint_kinds is not None]
        assert len(declared) > len(REGISTRY) // 2
        for reply in corpus:
            for spec in declared:
                if spec.fingerprint(reply):
                    assert reply.kind in spec.fingerprint_kinds, (spec.name, reply.kind)
