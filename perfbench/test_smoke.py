"""Tiny-size smoke test of the benchmark.

Every workload runs once untraced and once traced at a tiny size; every
metric BENCHMARK.json names must come out with its declared unit, and the
result line must carry exactly the keys the runner promises. Run from the
repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

TINY = {
    "grid": {
        "classes": 3,
        "per_class": 6,
        "dim": 12,
        "k_range": [2, 3],
        "repeats": 1,
        "max_iter": 5,
        "alpha_sweep": [1.0, 10.0],
    },
    "large_solve": {
        "classes": 3,
        "per_class": 8,
        "dim": 12,
        "k": 3,
        "iterations": 5,
        "acc_floor": 0.0,
        "residual_ceiling": 1.0,
    },
    "cli_io": {"classes": 3, "per_class": 8, "dim": 12, "k": 3, "max_iter": 5},
}


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_tiny_sizes_cover_every_workload(declared):
    run.import_mccgr()
    import workloads

    assert sorted(TINY) == sorted(workloads.WORKLOADS)
    assert {w["name"] for w in declared["workloads"]} <= set(TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(declared, workload, trace):
    run.import_mccgr()
    result, _, _ = run.run(workload, seed=3, seconds=0.0, trace=trace, params=TINY[workload])
    json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = declared["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


def test_a_function_the_seed_traced_but_a_run_never_called_is_not_observed():
    import layers

    missing = layers.not_observed("grid", {"factorization.solve": {"calls": 115}})
    assert "factorization.sigma_update" in missing
    assert "factorization.solve" not in missing
    record = {"traced_wall_s": 1.0, "functions_per_pass": {}, "not_observed": missing, "layer_self_s": {}}
    assert any("factorization.sigma_update" in line and "not observed" in line for line in layers.report_lines(record))


def test_without_the_library_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
