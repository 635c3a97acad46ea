"""Tests for enrichment: DSL, fingerprints, GeoIP/WHOIS, CVEs, enrichers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enrich import (
    DslError,
    FingerprintEngine,
    FingerprintRule,
    GeoIpRegistry,
    WhoisRegistry,
    compile_program,
    default_cve_feed,
    default_fingerprints,
    evaluate,
    parse,
    parse_version,
    standard_enrichers,
)
from repro.net import AddressSpace
from repro.simnet import Topology, TopologyConfig


class TestDslParser:
    def test_parses_nested_expressions(self):
        expr = parse('(and (= (field "a") 1) (contains (field "b") "x"))')
        assert expr[0] == "and"
        assert expr[1][0] == "="

    def test_string_escapes(self):
        expr = parse('(= (field "t") "say \\"hi\\"")')
        assert expr[2] == 'say "hi"'

    def test_numeric_and_boolean_atoms(self):
        assert parse("42") == 42
        assert parse("4.5") == 4.5
        assert parse("true") is True
        assert parse("#f") is False

    @pytest.mark.parametrize("bad", ["", "(", ")", "(a))", '(a "unterminated'])
    def test_rejects_malformed(self, bad):
        with pytest.raises(DslError):
            parse(bad)


class TestDslEvaluation:
    RECORD = {
        "http.html_title": "RouterOS router configuration page",
        "http.server": "mikrotik HttpProxy",
        "http.status": 200,
        "tags": ("a", "b"),
    }

    def test_field_and_comparison(self):
        assert evaluate(parse('(= (field "http.status") 200)'), self.RECORD)
        assert not evaluate(parse('(> (field "http.status") 500)'), self.RECORD)

    def test_contains_case_insensitive(self):
        assert evaluate(parse('(contains (field "http.html_title") "routeros")'), self.RECORD)

    def test_contains_on_sequences(self):
        assert evaluate(parse('(contains (field "tags") "a")'), self.RECORD)
        assert not evaluate(parse('(contains (field "tags") "z")'), self.RECORD)

    def test_boolean_connectives(self):
        program = '(and (present "http.server") (or (= (field "http.status") 404) true))'
        assert evaluate(parse(program), self.RECORD)
        assert evaluate(parse("(not false)"), {})

    def test_matches_regex(self):
        assert evaluate(parse('(matches (field "http.server") "^mikrotik")'), self.RECORD)

    def test_if_and_in(self):
        assert evaluate(parse('(if (present "nope") "y" "n")'), self.RECORD) == "n"
        assert evaluate(parse('(in (field "http.status") 200 301)'), self.RECORD)

    def test_lower_concat(self):
        assert evaluate(parse('(lower "ABC")'), {}) == "abc"
        assert evaluate(parse('(concat "a" "b" 1)'), {}) == "ab1"

    def test_missing_field_is_none(self):
        assert evaluate(parse('(field "missing")'), {}) is None
        assert not evaluate(parse('(present "missing")'), {})

    def test_comparison_type_mismatch_is_false(self):
        assert not evaluate(parse('(> (field "http.html_title") 3)'), self.RECORD)

    def test_unknown_operator(self):
        with pytest.raises(DslError):
            evaluate(parse("(frobnicate 1)"), {})

    def test_compile_program_reusable(self):
        check = compile_program('(= (field "x") 1)')
        assert check({"x": 1})
        assert not check({"x": 2})

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=30)
    def test_comparisons_match_python(self, a, b):
        record = {"a": a, "b": b}
        for op in ("=", "!=", ">", "<", ">=", "<="):
            expected = {
                "=": a == b, "!=": a != b, ">": a > b,
                "<": a < b, ">=": a >= b, "<=": a <= b,
            }[op]
            assert evaluate(parse(f'({op} (field "a") (field "b"))'), record) == expected


class TestFingerprints:
    def test_default_rules_identify_catalog_software(self):
        engine = default_fingerprints()
        match = engine.best({"http.server": "nginx/1.24.0", "http.html_title": "Welcome to nginx!"})
        assert match.product == "nginx"
        assert match.version == "1.24.0"

    def test_paper_example_wac6552d_s(self):
        engine = default_fingerprints()
        match = engine.best({"http.html_title": "WAC6552D-S"})
        assert match.vendor == "zyxel"
        assert match.device_type == "wireless-access-point"

    def test_ssh_version_extraction(self):
        engine = default_fingerprints()
        match = engine.best({"ssh.banner": "SSH-2.0-OpenSSH_9.3p1"})
        assert (match.vendor, match.product, match.version) == ("openbsd", "openssh", "9.3p1")

    def test_mariadb_vs_mysql_disambiguation(self):
        engine = default_fingerprints()
        maria = engine.best({"mysql.server_version": "5.5.5-10.11.4-MariaDB"})
        mysql = engine.best({"mysql.server_version": "8.0.35"})
        assert maria.product == "mariadb"
        assert maria.version == "10.11.4"
        assert mysql.product == "mysql"
        assert mysql.version == "8.0.35"

    def test_no_match_returns_none(self):
        engine = default_fingerprints()
        assert engine.best({"unknown.field": "zzz"}) is None

    def test_cpe_generation(self):
        engine = default_fingerprints()
        match = engine.best({"http.server": "Apache/2.4.57 (Ubuntu)"})
        assert match.cpe == "cpe:2.3:a:apache:http_server:2.4.57:*:*:*:*:*:*:*"

    def test_rule_requires_filter_or_program(self):
        with pytest.raises(ValueError):
            FingerprintRule(name="empty", vendor="v", product="p")

    def test_duplicate_rule_names_rejected(self):
        rule = FingerprintRule(name="r", vendor="v", product="p", filters={"a": ("equals", "b")})
        rule2 = FingerprintRule(name="r", vendor="v", product="p2", filters={"a": ("equals", "c")})
        with pytest.raises(ValueError):
            FingerprintEngine([rule, rule2])

    def test_dsl_rule_matches(self):
        engine = default_fingerprints()
        match = engine.best({"http.html_title": "RouterOS router configuration page"})
        assert match.product == "routeros"

    def test_every_web_catalog_entry_fingerprintable(self):
        """Most of the web catalog should be identified by some rule."""
        from repro.protocols import default_registry

        engine = default_fingerprints()
        http = default_registry().get("HTTP")
        rng = random.Random(5)
        identified = 0
        total = 200
        for _ in range(total):
            profile = http.make_profile(rng)
            record = http.build_record([http.respond(profile, __import__("repro.protocols.base", fromlist=["Probe"]).Probe("http-get", {"path": "/"}))])
            if engine.best(record) is not None:
                identified += 1
        assert identified / total > 0.5


class TestVulnerabilities:
    def test_version_ordering(self):
        assert parse_version("2023.0.1") < parse_version("2023.0.3")
        assert parse_version("9.3p1") > parse_version("8.9p1")
        assert parse_version("10.0") > parse_version("9.9")

    def test_moveit_cve_matching(self):
        db = default_cve_feed()
        assert any(c.cve_id == "CVE-2023-34362" for c in db.find("progress", "moveit_transfer", "2023.0.1"))
        assert not db.find("progress", "moveit_transfer", "2023.0.3")

    def test_unversioned_software_matches_nothing(self):
        db = default_cve_feed()
        assert db.find("progress", "moveit_transfer", None) == []

    def test_fixed_in_none_affects_all_versions(self):
        db = default_cve_feed()
        assert db.find("zyxel", "wac6552d-s", "6.28")


class TestRegistries:
    @pytest.fixture(scope="class")
    def topo(self):
        space = AddressSpace.of_bits(14)
        return space, Topology.generate(space, TopologyConfig(seed=4))

    def test_geoip_consistent_with_topology(self, topo):
        space, topology = topo
        geoip = GeoIpRegistry(topology)
        for network in topology.networks[:20]:
            record = geoip.locate(network.start)
            assert record.country == network.country

    def test_whois_lookup(self, topo):
        space, topology = topo
        whois = WhoisRegistry(topology)
        network = topology.networks[3]
        record = whois.lookup(network.start)
        assert record.asn == network.asn
        assert record.organization == network.organization
        assert "/" in record.cidr


class TestEnricherChain:
    def test_full_chain_on_reconstructed_host(self):
        from repro.pipeline import EventJournal, ReadSide, ScanObservation, WriteSideProcessor
        from repro.protocols.interrogate import InterrogationResult

        space = AddressSpace.of_bits(14)
        topology = Topology.generate(space, TopologyConfig(seed=4))
        journal = EventJournal()
        write = WriteSideProcessor(journal)
        read = ReadSide(journal, standard_enrichers(space, GeoIpRegistry(topology), WhoisRegistry(topology)))

        from repro.net import ip_to_str

        entity = f"host:{ip_to_str(space.ip_at(123))}"
        result = InterrogationResult(
            port=443,
            transport="tcp",
            success=True,
            protocol="HTTP",
            record={
                "http.status": 200,
                "http.html_title": "MOVEit Transfer - Sign On",
                "http.server": "MOVEit/2023.0.1",
            },
        )
        write.process(ScanObservation(entity, 0.0, 443, "tcp", result))
        view = read.lookup(entity)
        assert view["derived"]["location"]["country"] == topology.network_of(123).country
        assert view["derived"]["autonomous_system"]["asn"] == topology.network_of(123).asn
        service = view["services"]["443/tcp"]
        assert service["software"]["product"] == "moveit_transfer"
        assert any(v["cve_id"] == "CVE-2023-34362" for v in service["vulnerabilities"])
        assert "CVE-2023-34362" in view["derived"]["cve_ids"]

    def test_vnc_label_survives_wal_recovery_and_compaction(self, tmp_path):
        """JSON round-trips tuples to lists; the label must not depend on it."""
        from repro.enrich import make_label_enricher
        from repro.pipeline import EventJournal, ReadSide, ScanObservation, SegmentCompactor
        from repro.pipeline import WriteAheadLog, WriteSideProcessor
        from repro.protocols.interrogate import InterrogationResult

        wal_dir = str(tmp_path / "wal")
        journal = EventJournal(snapshot_every=4, wal=WriteAheadLog(wal_dir, segment_max_records=4))
        write = WriteSideProcessor(journal)
        vnc = InterrogationResult(
            port=5900, transport="tcp", success=True, protocol="VNC",
            record={"vnc.protocol_version": "RFB 003.008", "vnc.security_types": ("None",)},
        )
        for i in range(12):
            write.process(ScanObservation("host:10.0.0.1", float(i), 5900, "tcp", vnc))
        # Enough sealed segments for the fold to move the early history cold.
        compactor = SegmentCompactor(journal, wal_dir, min_sealed_segments=1)
        assert compactor.run_once()

        def labels(source, at=None):
            view = ReadSide(source, [make_label_enricher()]).lookup("host:10.0.0.1", at=at)
            return view["derived"].get("labels")

        live = labels(journal)
        assert live == ["unauthenticated-remote-access"]
        assert labels(journal, at=0.5) == live  # served from the folded cold tier
        journal.close()
        recovered = EventJournal.recover(wal_dir, snapshot_every=4, segment_max_records=4)
        assert labels(recovered) == live
        assert labels(recovered, at=0.5) == live
        recovered.close()
