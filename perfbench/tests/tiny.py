"""Run perfbench/run.py's main at the tests' tiny scale, optionally with one fault.

    PYTHONHASHSEED=0 python3 perfbench/tests/tiny.py <fault> <run.py arguments>

<fault> is one of

- ``none``;
- ``tracer``: an untraced run that constructs a tracer or installs a
  wrapper fails;
- ``search``: the measured platforms (read caches on) answer one search
  wrongly, the reference platforms rightly;
- ``connect``: the simulated Internet drops every connection to one in
  thirteen addresses, for measured and reference platforms alike.

The workloads' expected answers depend on the hash seed, so the caller
pins PYTHONHASHSEED; run.py would otherwise re-execute itself at full
scale.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.simnet.internet import SimulatedInternet  # noqa: E402


def _forbid_tracer(*_args, **_kwargs):
    raise AssertionError("an untraced run constructed a tracer")


def _wrong_search():
    honest = workloads.CensysPlatform.search

    def search(self, query, limit=None):
        hits = honest(self, query, limit=limit)
        if self.config.read_cache and query == gate.QUERIES[0]:
            hits = hits[1:] + ["host:0.0.0.0"]
        return hits

    workloads.CensysPlatform.search = search


def _dropped_connections():
    honest = SimulatedInternet.connect

    def connect(self, ip_index, *args, **kwargs):
        return None if ip_index % 13 == 0 else honest(self, ip_index, *args, **kwargs)

    SimulatedInternet.connect = connect


def main() -> int:
    fault, argv = sys.argv[1], sys.argv[2:]
    workloads.FULL = workloads.TINY
    if fault == "tracer":
        workloads.Tracer = workloads.install_platform_spans = _forbid_tracer
    elif fault == "search":
        _wrong_search()
    elif fault == "connect":
        _dropped_connections()
    elif fault != "none":
        raise SystemExit(f"unknown fault {fault!r}")
    return run.main(argv)


if __name__ == "__main__":
    sys.exit(main())
