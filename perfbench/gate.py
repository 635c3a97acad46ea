"""The correctness gate: digests of a platform's journal and serving answers.

Every workload ends by computing :func:`answers` on the platform it
measured and on a reference platform fed the same inputs through the
program's reference configuration (per-event ingest, read caches off,
one in-memory shard).  Each answer is hashed under its own key, so a
mismatch names the lookup, history, search or aggregate that diverged.

Each reference platform is in turn compared with the answers recorded in
``expected.json`` (:func:`fixture_digests` on a fixed probe set), which
``python3 perfbench/expected.py`` writes.
"""

from __future__ import annotations

import hashlib
import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["QUERIES", "AGG_FIELDS", "EXPECTED_PATH", "Probe", "choose_probe", "journal_digest",
           "answers", "mismatches", "fixture_digests", "load_expected"]

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Fixed search list; serving_mix draws from it with Zipf popularity in this order.
QUERIES = (
    "services.service_name: HTTP",
    "services.port: 443",
    "services.port: [1 to 1024]",
    "services.service_name: SSH",
    "location.country: US",
    "services.port < 1000 and location.country: US",
    "not services.service_name: HTTP",
    "location.country: DE",
    "services.service_name: MODBUS or services.service_name: DNP3",
    "services.port: [8000 to 9000]",
)
AGG_FIELDS = ("services.service_name", "location.country", "services.port")


@dataclass(frozen=True)
class Probe:
    """The fixed read set a gate asks: hosts, and past instants to read them at."""

    hosts: Tuple[int, ...]
    ats: Tuple[float, ...]


def choose_probe(hosts: Sequence[int], seed: int, count: int, t_lo: float, t_hi: float) -> Probe:
    """Draw ``count`` hosts and two historical instants from the seed."""
    rng = random.Random(f"probe-{seed}")
    picked = rng.sample(sorted(hosts), min(count, len(hosts)))
    ats = tuple(sorted(round(rng.uniform(t_lo, t_hi), 3) for _ in range(2)))
    return Probe(tuple(picked), ats)


def _plain(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return str(value)


def _digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, default=_plain, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def journal_digest(journal: Any) -> str:
    """Shard-count-independent hash of every entity's event stream."""
    h = hashlib.sha256()
    for entity_id in sorted(journal.entity_ids()):
        for event in journal.events_for(entity_id):
            h.update(
                json.dumps(
                    [event.entity_id, event.seq, event.time, event.kind, event.payload],
                    sort_keys=True, default=_plain,
                ).encode()
            )
    return h.hexdigest()


def answers(platform: Any, probe: Probe) -> Dict[str, str]:
    """Hash of the journal and of each probe answer, keyed by what was asked."""
    out = {"journal": journal_digest(platform.journal)}
    for ip in probe.hosts:
        out[f"lookup {ip}"] = _digest(platform.lookup_host(ip))
        for at in probe.ats:
            out[f"lookup {ip} at {at}"] = _digest(platform.lookup_host(ip, at=at))
        out[f"history {ip}"] = _digest(platform.host_history(ip))
    for query in QUERIES:
        out[f"search {query}"] = _digest(platform.search(query, limit=10))
        for field in AGG_FIELDS:
            table = platform.index.aggregate(query, field)
            out[f"aggregate {query} by {field}"] = _digest(
                sorted((repr(key), count) for key, count in table.items())
            )
    return out


def mismatches(expected: Dict[str, str], actual: Dict[str, str]) -> List[str]:
    """Keys whose answers differ, or that only one side has."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def fixture_digests(answered: Dict[str, str]) -> Dict[str, str]:
    """What expected.json keeps of one reference's answers."""
    return {"journal": answered["journal"], "answers": _digest(answered)}


@functools.lru_cache(maxsize=None)
def load_expected() -> Dict[str, Dict[str, Dict[str, str]]]:
    """expected.json: scale name -> fixture -> digests; empty if it is missing."""
    try:
        return json.loads(EXPECTED_PATH.read_text())
    except FileNotFoundError:
        return {}
