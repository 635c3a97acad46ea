"""End-to-end, layer-attributed benchmark of the Censys reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload map_build --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints its per-layer metrics from a run whose second half records spans
(written to ``.perfbench_out/``).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a report with the environment block and a per-workload
breakdown.  The exit code is 0 only when every gated answer matched.

The workload process pins PYTHONHASHSEED (see README.md: ``NameFeed``
derives passive-DNS lag from the salted ``hash()`` of a name, so the
map itself depends on the hash seed until that is fixed in ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Pinned until NameFeed stops hashing names with the salted built-in hash().
PINNED_HASH_SEED = "0"


def pin_hash_seed() -> None:
    """Re-execute the running script with the pinned hash seed (same process id)."""
    if os.environ.get("PYTHONHASHSEED") != PINNED_HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=PINNED_HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": host.machine(),
        "python": host.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None) -> tuple:
    """Run one workload; returns (result line dict, report dict)."""
    import workloads

    scale = scale or workloads.FULL
    window = workloads.TraceWindow() if trace else None
    scratch = OUT_DIR / f"wal-{os.getpid()}"
    fn = workloads.WORKLOADS[workload]
    try:
        if workload == "durable_replay":
            scratch.mkdir(parents=True, exist_ok=True)
            out = fn(seed, seconds, scale, window, scratch)
        else:
            out = fn(seed, seconds, scale, window)
    except workloads.WorkloadAborted as exc:
        out = exc.outcome
        result = {"correct": False, "attempted": out.attempted, "failed": out.failed, "metrics": {}}
        return result, {"workload": workload, "environment": environment(seed), "errors": out.errors}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        values = workloads.per_layer_metrics(window)
        units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        window.tracer.dump(str(spans_path))
    else:
        values = workloads.e2e_metrics(out)
        units = {m["name"]: m["unit"] for m in bench_spec()["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "environment": environment(seed),
        "op_error_rate": out.failed / out.attempted,
        "setup_s_samples": [ns / 1e9 for ns in out.setup_ns],
        "ops": len(out.op_ns),
        "raw_busy_s": out.raw_op_ns / 1e9,
        "scaled_busy_s": sum(out.op_ns) / 1e9,
        "kernel_ms": {"median": statistics.median(out.calibrations) / 1e6,
                      "min": min(out.calibrations) / 1e6, "max": max(out.calibrations) / 1e6,
                      "count": len(out.calibrations)},
        "tail_percentile": out.tail_pct,
        "peak_rss_scope": out.peak_rss_scope,
        "observations": out.observations,
        "detail": out.detail,
        "mismatched": out.mismatched[:20],
        "errors": out.errors[:3],
    }
    if trace:
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["map_build", "durable_replay", "serving_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_hash_seed()
    sys.path.insert(0, str(ROOT / "src"))
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
