"""Tests of the benchmark itself; run with `python3 -m pytest perfbench`.

They start `run.py` in a subprocess from the root of the checkout, as a
benchmark harness would, and take a few minutes: two traced runs per
workload and one short untraced run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((HERE / "manifest.json").read_text())
WORKLOADS = list(inputs.WORKLOADS)
WORK_COUNTERS = ("_calls", "_runs", ".cones", "_ops")


def run_bench(cwd: Path, workload: str, seed: int, seconds: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_inputs():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)
    assert sorted(MANIFEST["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_digests_match_the_draw(workload):
    for seed, want in MANIFEST["input_digests"][workload].items():
        got = inputs.digest(inputs.pass_text(workload, int(seed)))
        assert got == want, f"{workload} seed {seed} now draws {got}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    seed = MANIFEST["default_seed"]
    first = result(run_bench(ROOT, workload, seed, 1, 1))
    second = result(run_bench(ROOT, workload, seed, 1, 1))
    names = [m["name"] for m in BENCH["per_layer"]]
    assert sorted(first["metrics"]) == sorted(names)
    assert first["correct"] and first["failed"] == 0
    counters = [n for n in names if n.endswith(WORK_COUNTERS)]
    assert counters
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name

    m = {k: v["value"] for k, v in first["metrics"].items()}
    if workload != "fan_selfcheck":
        assert all(v == 0 for k, v in m.items() if k.startswith(("cones.", "fan.")))
    if workload == "point_designs":
        assert m["groebner.buchberger_runs"] == 0
    if workload == "fan_selfcheck":
        assert m["points.key_calls"] == 0
        assert m["fan.cones"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    res = result(run_bench(ROOT, "fan_selfcheck", MANIFEST["default_seed"], 1, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert sorted(res["metrics"]) == sorted(m["name"] for m in BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "fan_selfcheck", 1, 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
