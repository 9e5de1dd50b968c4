"""Tests that run the benchmark itself.

Not collected by a bare ``pytest``; run with
``python3 -m pytest perfbench/tests/check_*.py`` from the repository root.
The recovery runs take about a minute on a 2-core machine.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.fixture(scope="module")
def recovery_traced():
    return _result("--workload", "sim1-recovery", "--seed", "0", "--seconds", "1", "--trace", "1")


@pytest.fixture(scope="module")
def recovery_untraced():
    return _result("--workload", "sim1-recovery", "--seed", "0", "--seconds", "1", "--trace", "0")


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["sim1-cli", "sim1-recovery", "wide-io"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


def test_untraced_run_prints_the_end_to_end_metrics(recovery_untraced):
    result, _ = recovery_untraced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_traced_run_prints_the_per_layer_metrics(recovery_traced):
    result, _ = recovery_traced
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0


def test_recovery_counts_match_the_baseline_at_seeds_0_to_4(recovery_traced, recovery_untraced):
    # grouped: 132,775 iterations over 70 fits, 26 stopped at max_iter;
    # LPD: 24 of the 70 lambda values have an infeasible direction;
    # best exact joint recoveries over the grid: grouped 2, LPD 2.
    metrics = {k: v["value"] for k, v in recovery_traced[0]["metrics"].items()}
    assert metrics["solvers.grouped_fits"] == 70
    assert metrics["solvers.grouped_iters"] == 132775
    assert metrics["solvers.grouped_maxiter_frac"] == 26 / 70
    for _, detail in (recovery_traced, recovery_untraced):
        q = detail["quality"]
        assert (q["grouped_iters"], q["grouped_maxiter"], q["lpd_infeasible_lambdas"]) == (
            132775, 26, 24)
        assert (q["grouped_exact"], q["lpd_exact"]) == (2, 2)
    # one first-direction fit per lambda, plus a second where the first was feasible
    assert metrics["solvers.lpd_fits"] == 116
    assert metrics["solvers.lpd_infeasible_frac"] == 24 / 116


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "wide-io", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
