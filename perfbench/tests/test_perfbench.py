"""The benchmark's own tests: tiny runs of every workload, the digest gate,
self-time arithmetic, and the contract between the output and BENCHMARK.json.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import spans
import workloads

ROOT = Path(run.__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.TINY
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _names(section: str) -> set:
    return {metric["name"] for metric in SPEC[section]}


def _tiny(fault: str, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """Run one workload at TINY scale (tests/tiny.py) under the pinned hash seed;
    returns (exit code, report line, result line)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("tiny.py")), fault, "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=run.PINNED_HASH_SEED),
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, proc.stderr[-3000:]
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


# -- smoke runs and the output contract ---------------------------------------


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_untraced_run_is_correct_and_prints_every_e2e_metric(workload):
    code, report, result = _tiny("tracer", workload, 3, 0.3, 0)
    assert code == 0 and result["correct"], report
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == _names("end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0 and metric["unit"], name
    assert report["environment"]["seed"] == 3
    assert report["environment"]["pythonhashseed"] == run.PINNED_HASH_SEED


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    code, report, result = _tiny("none", workload, 3, 0.4, 1)
    assert code == 0 and result["correct"], report
    assert set(result["metrics"]) == _names("per_layer")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    # Self times partition the traced wall time; they never exceed it.
    assert 0 < values["trace.attributed_share"] <= 1.0 + 1e-9
    assert values["stages.ingest.submit_many.calls"] > 0
    assert (ROOT / report["spans_file"]).stat().st_size > 0


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[section]:
            assert name.match(entry["name"]) and entry["name"] not in seen
            seen.add(entry["name"])
            if section == "workloads":
                assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
            else:
                assert unit.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map_build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the correctness gate ------------------------------------------------------


def test_gate_names_the_one_perturbed_answer():
    internet = workloads._world(TINY, 5)
    platform = workloads._platform(internet, 7, TINY)
    platform.run_until(0.0, tick_hours=6.0)
    probe = workloads._probe(internet, 7, TINY)
    expected = gate.answers(platform, probe)
    target = probe.hosts[0]
    honest = platform.lookup_host

    def perturbed(ip, at=None):
        view = honest(ip, at=at)
        if ip == target and at is None:
            view = dict(view, services={})
        return view

    platform.lookup_host = perturbed
    assert gate.mismatches(expected, gate.answers(platform, probe)) == [f"lookup {target}"]


def test_workload_fails_and_exits_nonzero_on_one_wrong_answer():
    code, report, result = _tiny("search", "map_build", 2, 0.2, 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any(f"search {gate.QUERIES[0]}" in key for key in report["mismatched"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_a_fault_shared_by_the_reference_fails_against_expected_answers(workload):
    # Measured and reference platforms agree here; only expected.json can tell.
    code, report, result = _tiny("connect", workload, 2, 0.2, 0)
    assert code == 1
    assert result["correct"] is False
    assert report["mismatched"]
    assert all(key.startswith("expected ") for key in report["mismatched"]), report["mismatched"]


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # tick [0, 100] -> connect [10, 30], ingest [40, 90] -> write [50, 70]
    # and a recursive tick [80, 85] inside ingest, which busy time must not count twice.
    tree = [
        ("tick", 0, 100, -1, 1),
        ("connect", 10, 30, 0, 1),
        ("ingest", 40, 90, 0, 1),
        ("write", 50, 70, 2, 1),
        ("tick", 80, 85, 2, 1),
    ]
    times = spans.layer_times(tree)
    assert times["tick"] == {"calls": 2, "busy_ns": 100, "self_ns": (100 - 20 - 50) + 5}
    assert times["connect"] == {"calls": 1, "busy_ns": 20, "self_ns": 20}
    assert times["ingest"] == {"calls": 1, "busy_ns": 50, "self_ns": 50 - 20 - 5}
    assert times["write"] == {"calls": 1, "busy_ns": 20, "self_ns": 20}
    assert sum(row["self_ns"] for row in times.values()) == 100


def test_tracer_records_parents_and_uninstalls():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    layer = Layer()
    tracer = spans.Tracer()
    tracer.wrap(layer, "outer", "layer.outer")
    tracer.wrap(layer, "inner", "layer.inner")
    tracer.op_id = 9
    assert layer.outer() == 2
    outer, inner = tracer.finished()
    assert outer[0] == "layer.outer" and outer[3] == -1
    assert inner[0] == "layer.inner" and inner[3] == 0 and inner[4] == 9
    tracer.uninstall()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)
