"""The benchmark's own tests: a tiny-size smoke run of every workload, and
checks that each output check rejects a perturbed output.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import cowalk as cw  # noqa: E402
import tracing  # noqa: E402
from cowalk.ratfun import RationalFn  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in record["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())


def test_tv_check_rejects_value_off_by_1e_11():
    points = cw.cutoff_profile(5, 200, [-1.0, 0.0, 1.0])
    assert checks.check_tv(points, 5, 200)[0]
    points[1] = dataclasses.replace(points[1], tv_exact=points[1].tv_exact + 1e-11)
    assert not checks.check_tv(points, 5, 200)[0]


def test_sign_check_rejects_flipped_cell():
    table = cw.r_diff_table(4, 6, np.geomspace(0.01, 10, 5))
    assert checks.check_sign_table(table)[0]
    i, j = np.argwhere(table.r_values > 1e-6)[0]
    certs = table.r_certs.copy()
    certs[i, j] = "negative"
    assert not checks.check_sign_table(dataclasses.replace(table, r_certs=certs))[0]


def test_fraction_checks_reject_wrong_values():
    mean = cw.mean_tau_stationary(5, 30)
    assert checks.check_mean_exact(mean, 5, 30)[0]
    assert not checks.check_mean_exact(mean + Fraction(1, 10**40), 5, 30)[0]

    r_levels = [cw.laplace_R(4, m) for m in range(1, 7)]
    assert checks.check_laplace(4, cw.laplace_V(4, 6), r_levels)[0]
    r_levels[3] = r_levels[3] + RationalFn(Fraction(1, 10**9))
    assert not checks.check_laplace(4, cw.laplace_V(4, 6), r_levels)[0]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [["parent", 0.0, 10.0, None, "op"],
             ["child", 1.0, 4.0, 0, "op"],
             ["child", 3.0, 6.0, 0, "op"]]
    times = tracing.self_times(spans)
    assert times["parent"] == (1, 5.0)
    assert times["child"] == (2, 6.0)
