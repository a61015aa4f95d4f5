"""Self-test of the benchmark on h = 1/16 variants of its three workloads.

    python3 -m pytest -q perfbench/test_selftest.py

It checks that every metric named in ``BENCHMARK.json`` is emitted, that an
input which is bad on purpose is counted as a failed operation instead of
crashing the benchmark, and that the benchmark refuses to run without the
program's sources.  Accuracy checks are not expected to pass at h = 1/16.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COARSE = 16


def test_spec_matches_the_metrics_the_benchmark_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_named_metric_is_emitted(workload, trace):
    result = run.measure(workload, seed=1, seconds=0.1, trace=trace,
                         h_div=COARSE)
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    assert result["attempted"] >= 1
    assert not any(".exit" in f for f in result["details"]["failures"])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["stencil.sor_sweeps"] > 0
        assert metrics["check.determinism_mismatches"] == 0
        assert metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]


def test_margin_too_small_for_the_horizon_is_a_failed_operation():
    result = run.measure("obstacle-radial64", seed=1, seconds=0.1, trace=0,
                         h_div=COARSE, margin_scale=0.3)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "rep0.proc0.exit3" in result["details"]["failures"]
    assert result["metrics"]["pass_frac"]["value"] < 1.0
    # a failed run still reports a number for every metric
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    assert result["metrics"]["accuracy_tol_share"]["value"] > 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "compare-radial32", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
