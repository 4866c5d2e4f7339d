import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cowalk import _kernels, simulate
from cowalk.exact import expected_tau, survival_exact
from cowalk.optimality import dominance_test
from cowalk.simulate import (
    estimate_survival,
    sample_coupling_times,
    validate_marginals,
)
from cowalk.states import WalkParams
from cowalk.strategies import Strategy, death_chain, rate_table


def test_trivial_coupling_from_equal_states():
    x = np.zeros(6, dtype=int)
    tau, nj = sample_coupling_times(Strategy.OPTIMAL, 4, np.count_nonzero(x != x), 1, seed=1)
    assert tau.tolist() == [0.0] and nj.tolist() == [0]


def test_single_unmatched_is_exponential():
    # one unmatched coordinate at d=2: coupling time ~ Exponential(2)
    tau, nj = sample_coupling_times(Strategy.OPTIMAL, 2, 1, 100_000, seed=42)
    assert (nj == 1).all()
    se = tau.std() / np.sqrt(tau.size)
    assert abs(tau.mean() - 0.5) <= 3 * se
    # one survival point against the closed form
    p_hat = (tau > 0.5).mean()
    assert abs(p_hat - np.exp(-1.0)) <= 3 * np.sqrt(np.exp(-1) * (1 - np.exp(-1)) / tau.size)


def test_jump_counts_d2():
    # d=2: even level jumps -2, odd level jumps -1 then -2s
    tau, nj = sample_coupling_times(Strategy.OPTIMAL, 2, 8, 2000, seed=0)
    assert (nj == 4).all()
    tau, nj = sample_coupling_times(Strategy.OPTIMAL, 2, 7, 2000, seed=0)
    assert (nj == 4).all()  # 7 -> 6 -> 4 -> 2 -> 0
    for strat in Strategy:  # level 0, on its own one-level rate table
        tau, nj = sample_coupling_times(strat, 2, 0, 2000, seed=0)
        assert (tau == 0.0).all() and (nj == 0).all()


def test_path_monotone_jump_budget():
    # downward-only jumps: at most m0 jumps ever
    for strat in (Strategy.OPTIMAL, Strategy.INDEPENDENT, Strategy.PAIRWISE_CLASSIC):
        tau, nj = sample_coupling_times(strat, 5, 9, 5000, seed=3)
        assert (nj <= 9).all()
        assert np.isfinite(tau).all()


def test_synchronous_never_couples():
    tau, nj = sample_coupling_times(Strategy.SYNCHRONOUS, 3, 4, 500, seed=9)
    assert np.isinf(tau).all()
    assert (nj == 0).all()


def test_all_stuck_start_draws_nothing_and_matches_the_chunk_path(monkeypatch):
    # three chunks, each drawn and run as before the shortcut
    total, p2 = rate_table(Strategy.SYNCHRONOUS, 4, 40)
    want_tau, want_nj = np.empty(70_000), np.empty(70_000, dtype=np.int64)
    bounds = simulate._chunk_bounds(70_000, 40)
    assert len(bounds) == 3
    for i, (lo, hi) in enumerate(bounds):
        simulate._run_lumped_chunk(7, i, want_tau[lo:hi], want_nj[lo:hi], total, p2, 40, np.inf)
    monkeypatch.setattr(simulate, "_run_lumped_chunk", None)  # any draw fails
    tau, nj = sample_coupling_times(Strategy.SYNCHRONOUS, 4, 40, 70_000, seed=7)
    assert tau.dtype == want_tau.dtype and tau.tobytes() == want_tau.tobytes()
    assert nj.dtype == want_nj.dtype and nj.tobytes() == want_nj.tobytes()


def test_even_level_sojourn_rate():
    # at an even level m the total exit rate is m, so the first holding time
    # is Exponential(m); holding times are independent of the jump choice,
    # so conditioning on an immediate -2 absorption from level 2 observes it
    tau, nj = sample_coupling_times(Strategy.OPTIMAL, 10, 2, 900_000, seed=20)
    sojourn = tau[nj == 1]
    assert sojourn.size > 90_000
    se = sojourn.std() / np.sqrt(sojourn.size)
    assert abs(sojourn.mean() - 0.5) <= 3 * se


def test_mean_against_exact():
    for d, m0 in [(2, 6), (4, 5), (10, 8)]:
        tau, _ = sample_coupling_times(Strategy.OPTIMAL, d, m0, 100_000, seed=17)
        se = tau.std() / np.sqrt(tau.size)
        assert abs(tau.mean() - float(expected_tau(d, m0))) <= 3.5 * se


def test_estimate_survival_matches_exact():
    grid = np.array([0.25, 0.5, 1.0, 2.0])
    curve = estimate_survival(Strategy.OPTIMAL, 3, 5, grid, 100_000, seed=5)
    exact = survival_exact(3, 5, grid)
    sigma = np.sqrt(exact * (1 - exact) / curve.replicates)
    assert (np.abs(curve.value - exact) <= 4 * sigma).all()


def test_estimate_survival_trivial_points():
    grid = np.array([0.0, 0.5])
    curve = estimate_survival(Strategy.OPTIMAL, 4, 3, grid, 1000, seed=2)
    assert curve.value[0] == 1.0  # distinct starts at t = 0
    sync = estimate_survival(Strategy.SYNCHRONOUS, 4, 3, grid, 1000, seed=2)
    assert (sync.value == 1.0).all()


@pytest.mark.parametrize("start", [6.5, 3.0, True, (np.array([0, 0]), np.array([1, 0]))])
def test_non_integer_start_level_is_refused(monkeypatch, start):
    def no_draws(*args):
        raise AssertionError("a refused start level drew")

    monkeypatch.setattr(simulate, "_run_lumped_chunk", no_draws)
    with pytest.raises(ValueError, match="m0 must be an integer"):
        sample_coupling_times("optimal", 3, start, 100, 1)
    with pytest.raises(ValueError, match="m0 must be an integer"):
        estimate_survival("optimal", 3, start, [0.5], 100, 1)


def test_start_level_is_bounded(monkeypatch):
    # synchronous runs at d = 4 cannot move: inf at once, just inside the bound
    tau, jumps = sample_coupling_times("synchronous", 4, 10**6, 1, 0)
    assert tau.tolist() == [np.inf] and jumps.tolist() == [0]

    def no_table(*args):
        raise AssertionError("a refused start level built a rate table")

    monkeypatch.setattr(simulate, "rate_table", no_table)
    for start in (10**6 + 1, np.int64(10**8)):
        with pytest.raises(ValueError, match="starts at level at most 1000000"):
            sample_coupling_times("synchronous", 4, start, 1, 0)
        with pytest.raises(ValueError, match="starts at level at most 1000000"):
            estimate_survival("optimal", 4, start, [0.5], 100, 1)


def test_numpy_integer_start_level_is_accepted():
    for a, b in zip(sample_coupling_times("optimal", 3, np.int64(3), 100, 1),
                    sample_coupling_times("optimal", 3, 3, 100, 1)):
        assert a.tobytes() == b.tobytes()
    a = estimate_survival("optimal", 3, np.int64(3), [0.5, 1.0], 100, 1)
    b = estimate_survival("optimal", 3, 3, [0.5, 1.0], 100, 1)
    assert a.value.tobytes() == b.value.tobytes()


def test_reproducibility_and_seed_sensitivity():
    grid = np.linspace(0.1, 3.0, 7)
    a = estimate_survival(Strategy.OPTIMAL, 4, 6, grid, 20_000, seed=123)
    b = estimate_survival(Strategy.OPTIMAL, 4, 6, grid, 20_000, seed=123)
    c = estimate_survival(Strategy.OPTIMAL, 4, 6, grid, 20_000, seed=124)
    assert (a.value == b.value).all()
    assert (a.half_width_95 == b.half_width_95).all()
    assert (a.value != c.value).any()


def test_worker_count_does_not_change_results():
    tau1, _ = sample_coupling_times(Strategy.OPTIMAL, 4, 500, 70_000, seed=6, n_workers=1)
    tau3, _ = sample_coupling_times(Strategy.OPTIMAL, 4, 500, 70_000, seed=6, n_workers=3)
    assert (tau1 == tau3).all()


def test_chunks_filled_in_place_match_one_draw_per_chunk_under_thread_switching():
    # four workers on fewer cores, each chunk's helper drawing into one of two
    # buffers while the kernel reads the other, threads switching every
    # microsecond: each chunk's slice must hold what one whole-chunk draw gives
    total, p2 = rate_table(Strategy.OPTIMAL, 4, 40)
    want = []
    for i, (lo, hi) in enumerate(simulate._chunk_bounds(70_000, 40)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, i))))
        u = rng.random((hi - lo, 40, 2))
        want.append(_kernels.lumped_batch(total, p2, 40, np.inf, -np.log1p(-u[:, :, 0]),
                                          u[:, :, 1]))
    want_tau, want_nj = (np.concatenate(x) for x in zip(*want))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tau, nj = sample_coupling_times("optimal", 4, 40, 70_000, seed=8, n_workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert tau.tobytes() == want_tau.tobytes() and nj.tobytes() == want_nj.tobytes()


def test_simulate_coupling_censoring_sentinel():
    x, y = np.zeros(5, dtype=int), np.array([1, 2, 3, 1, 2])
    m0 = np.count_nonzero(x != y)
    tau, _ = sample_coupling_times(Strategy.OPTIMAL, 4, m0, 1, seed=3, t_max=1e-9)
    assert np.isinf(tau[0])
    tau, nj = sample_coupling_times(Strategy.OPTIMAL, 4, m0, 1, seed=3)
    assert np.isfinite(tau[0]) and nj[0] >= 3


def test_censoring_consistency():
    # censoring at the grid maximum leaves on-grid estimates unchanged
    short = estimate_survival(Strategy.INDEPENDENT, 4, 4, [0.5], 5000, seed=31)
    long = estimate_survival(Strategy.INDEPENDENT, 4, 4, [0.5, 50.0], 5000, seed=31)
    assert short.value[0] == long.value[0]


def test_wald_half_widths():
    curve = estimate_survival(Strategy.OPTIMAL, 2, 3, [0.7], 10_000, seed=44)
    p = curve.value[0]
    se = np.sqrt(p * (1 - p) / 10_000)
    assert curve.half_width_95[0] == pytest.approx(1.959963984540054 * se)
    assert curve.half_width_3sigma[0] == pytest.approx(3 * se)


def test_input_validation():
    with pytest.raises(ValueError):
        estimate_survival(Strategy.OPTIMAL, 3, 2, [], 1000, seed=0)
    with pytest.raises(ValueError):
        estimate_survival(Strategy.OPTIMAL, 3, 2, [1.0], 50, seed=0)
    with pytest.raises(ValueError):
        sample_coupling_times(Strategy.OPTIMAL, 3, -1, 100, seed=0)
    with pytest.raises(ValueError):
        sample_coupling_times(Strategy.OPTIMAL, 3, 2, 100, seed=0, t_max=0.0)


def test_nan_t_max_is_refused():
    # nan <= 0 is False, so a plain sign test would let it run uncensored
    with pytest.raises(ValueError, match="t_max must be positive"):
        sample_coupling_times(Strategy.OPTIMAL, 3, 2, 100, seed=0, t_max=float("nan"))


@pytest.mark.parametrize("grid,rule", [
    ([1.0, np.nan], "finite"), ([1.0, np.inf], "finite"),
    ([-1.0, -2.0], "nonnegative"), ([0.5, -0.1], "nonnegative"), ([], "nonempty"),
])
def test_estimate_survival_refuses_bad_grids(grid, rule):
    with pytest.raises(ValueError, match=f"t_grid must be {rule}"):
        estimate_survival("optimal", 4, 5, grid, 100, 1)


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_refused(workers):
    with pytest.raises(ValueError, match="n_workers must be >= 1"):
        sample_coupling_times("optimal", 4, 5, 100, seed=1, n_workers=workers)
    with pytest.raises(ValueError, match="n_workers must be >= 1"):
        estimate_survival("optimal", 4, 5, [1.0], 100, 1, n_workers=workers)
    with pytest.raises(ValueError, match="n_workers must be >= 1"):
        dominance_test(4, 5, "independent", [1.0], 100, 1, n_workers=workers)


def test_no_worker_count_means_one():
    tau0, nj0 = sample_coupling_times("optimal", 4, 5, 1000, seed=2, n_workers=None)
    tau1, nj1 = sample_coupling_times("optimal", 4, 5, 1000, seed=2, n_workers=1)
    assert tau0.tobytes() == tau1.tobytes() and np.array_equal(nj0, nj1)


# --- marginal validation ----------------------------------------------------

@pytest.mark.parametrize("strategy", ["optimal", "independent", "synchronous"])
@pytest.mark.parametrize("d", [2, 4])
def test_marginal_laws(strategy, d):
    report = validate_marginals(Strategy(strategy), WalkParams(d=d, n=5),
                                horizon=10.0, replicates=4000, seed=101)
    assert report.passed, [(t.name, t.p_value) for t in report.tests]
    # per-coordinate change counts average the horizon
    se = np.sqrt(10.0 / (4000 * 5))
    assert abs(report.mean_changes_x - 10.0) <= 4 * se
    assert abs(report.mean_changes_y - 10.0) <= 4 * se


def test_synchronous_moves_jointly():
    report = validate_marginals(Strategy.SYNCHRONOUS, WalkParams(d=3, n=4),
                                horizon=5.0, replicates=500, seed=7)
    assert report.all_moves_joint


def test_independent_unmatched_moves_alone():
    # chains start fully unmatched and (at d >= 3) rarely finish matching,
    # so joint moves must be a strict minority of all moves
    report = validate_marginals(Strategy.INDEPENDENT, WalkParams(d=10, n=4),
                                horizon=2.0, replicates=500, seed=7)
    assert not report.all_moves_joint


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0])
def test_marginal_validation_rejects_non_finite_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        validate_marginals(Strategy.SYNCHRONOUS, WalkParams(d=2, n=4), horizon, 500, 1)


def test_marginal_validation_rejects_pairwise():
    with pytest.raises(ValueError):
        validate_marginals(Strategy.PAIRWISE_CLASSIC, WalkParams(d=2, n=4), 5.0, 500, 1)


def test_marginal_validation_rejects_no_replicates():
    with pytest.raises(ValueError, match="replicates must be >= 1"):
        validate_marginals(Strategy.OPTIMAL, WalkParams(d=3, n=2), 1.0, 0, 1)


def test_estimate_survival_equals_dense_count():
    # grid points tied to sampled taus, and taus censored to +inf beyond the
    # grid: the sorted-sample count must equal the dense comparison bitwise
    d, m0, reps, seed, t_top = 4, 6, 500, 17, 1.0
    tau, _ = sample_coupling_times(Strategy.OPTIMAL, d, m0, reps, seed,
                                   t_max=t_top * (1 + 1e-12))
    finite = np.sort(tau[np.isfinite(tau)])
    assert np.isinf(tau).any() and finite.size > 10
    grid = np.concatenate([[0.0], finite[::5], [t_top]])
    curve = estimate_survival(Strategy.OPTIMAL, d, m0, grid, reps, seed)
    dense = (tau[None, :] > grid[:, None]).mean(axis=1)
    assert np.array_equal(curve.value, dense)


def _lumped_reference(total, p2, m0, t_max, u_exp, u_jump):
    """Per-replicate scalar loop of the lumped kernel's contract."""
    tau, njumps = np.zeros(u_exp.shape[0]), np.zeros(u_exp.shape[0], dtype=np.int64)
    for r in range(u_exp.shape[0]):
        m, t = m0, 0.0
        for step in range(m0):
            if m == 0:
                break
            if total[m] <= 0.0:
                t = np.inf
                break
            t = t + u_exp[r, step] / total[m]
            if t > t_max:
                t = np.inf
                break
            m = max(m - (2 if u_jump[r, step] < p2[m] else 1), 0)
            njumps[r] += 1
        tau[r] = t
    return tau, njumps


@pytest.mark.parametrize("total,p2,m0,t_max,u_exp,u_jump", [
    # level 3 has rate 0 mid-path; row 1 jumps past it by a -2 from level 4
    ([0.0, 1.0, 2.0, 0.0, 4.0, 5.0], [0, 0, 0.5, 0, 0.5, 0.5], 5, np.inf,
     [[0.5, 0.25, 1.0, 1.0, 1.0], [0.5, 0.0, 0.3, 2.0, 1.0]],
     [[0.9, 0.9, 0.9, 0.9, 0.9], [0.9, 0.1, 0.9, 0.9, 0.9]]),
    # u_exp = 0.0 steps, and absorption exactly at t_max (not censored)
    ([0.0, 1.0, 1.0, 1.0], [0, 0, 0, 0], 3, 0.75,
     [[0.0, 0.5, 0.25], [0.5, 0.25, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]],
     [[0.5, 0.5, 0.5]] * 4),
    # a -2 jump from level 1 clips at 0; censoring beyond a finite t_max
    ([0.0, 2.0, 1.0], [0.0, 1.0, 0.0], 2, 1.0,
     [[0.5, 0.5], [0.25, 1.5], [2.5, 0.1]], [[0.5, 0.0], [0.5, 0.5], [0.5, 0.5]]),
    # m0 = 0: no columns, every replicate absorbed at t = 0
    ([0.0], [0.0], 0, np.inf, np.zeros((3, 0)), np.zeros((3, 0))),
])
def test_lumped_kernel_matches_scalar_loop(total, p2, m0, t_max, u_exp, u_jump):
    u_exp, u_jump = np.asarray(u_exp, dtype=float), np.asarray(u_jump, dtype=float)
    tau, nj = _kernels.lumped_batch(total, p2, m0, t_max, u_exp, u_jump)
    ref_tau, ref_nj = _lumped_reference(total, p2, m0, t_max, u_exp, u_jump)
    assert tau.tobytes() == ref_tau.tobytes()
    assert np.array_equal(nj, ref_nj)


def test_lumped_kernel_matches_scalar_loop_on_random_chains():
    rng = np.random.default_rng(8)
    for _ in range(40):
        m0 = int(rng.integers(1, 9))
        total = np.where(rng.random(m0 + 1) < 0.2, 0.0, rng.uniform(0.5, 3.0, m0 + 1))
        p2 = rng.random(m0 + 1)
        t_max = rng.choice([np.inf, 0.5, 2.0])
        u_exp = np.where(rng.random((25, m0)) < 0.1, 0.0, rng.exponential(size=(25, m0)))
        u_jump = rng.random((25, m0))
        tau, nj = _kernels.lumped_batch(total, p2, m0, t_max, u_exp, u_jump)
        ref_tau, ref_nj = _lumped_reference(total, p2, m0, t_max, u_exp, u_jump)
        assert tau.tobytes() == ref_tau.tobytes()
        assert np.array_equal(nj, ref_nj)


@st.composite
def _lumped_cases(draw):
    """(total, p2, m0, t_max, u_exp, u_jump) with rate-0 levels, zero
    holding deviates, sure -2 jumps and, for t_max = None, a cap equal to
    the first absorption time of the uncensored run."""
    m0 = draw(st.integers(1, 8))
    reps = draw(st.integers(1, 6))
    rates = st.one_of(st.just(0.0), st.floats(0.25, 4.0))
    total = draw(st.lists(rates, min_size=m0 + 1, max_size=m0 + 1))
    p2 = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                       min_size=m0 + 1, max_size=m0 + 1))
    exp_draws = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
    u_exp = draw(st.lists(st.lists(exp_draws, min_size=m0, max_size=m0),
                          min_size=reps, max_size=reps))
    u_jump = draw(st.lists(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                    min_size=m0, max_size=m0),
                           min_size=reps, max_size=reps))
    t_max = draw(st.one_of(st.just(np.inf), st.just(None), st.floats(0.1, 10.0)))
    return total, p2, m0, t_max, u_exp, u_jump


@given(_lumped_cases())
@settings(max_examples=300, deadline=None)
# rate-0 level reached with u_exp = 0.0 (the 0/0 path)
@example(([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 2, np.inf, [[0.5, 0.0]], [[0.9, 0.9]]))
# a -2 jump drawn at level 1 ends at 0
@example(([0.0, 1.0, 1.0], [0.0, 1.0, 0.0], 2, np.inf, [[0.5, 0.5]], [[0.5, 0.5]]))
# absorption exactly at a finite t_max
@example(([0.0, 2.0, 1.0, 3.0], [0.0, 0.5, 0.5, 0.5], 3, None,
          [[0.5, 1.0, 0.25], [1.0, 0.5, 2.0]], [[0.9, 0.1, 0.9], [0.1, 0.9, 0.9]]))
# every level stuck, like the synchronous coupling
@example(([0.0] * 4, [0.0] * 4, 3, np.inf, [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]],
          [[0.5] * 3] * 2))
# no -2 jump at any level >= 2, so the kernel skips the jump test; the
# p2[0..1] it clears may be nonzero
@example(([0.0, 1.0, 2.0, 3.0], [0.0] * 4, 3, np.inf, [[0.5, 1.0, 0.25]], [[0.0, 0.0, 0.0]]))
@example(([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 0.0, 0.0], 3, np.inf,
          [[0.5, 1.0, 0.25], [1.0, 0.5, 2.0]], [[0.0, 0.5, 0.9], [0.9, 0.0, 0.0]]))
@example(([0.0, 2.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.0], 3, None,
          [[1.0, 0.5, 0.5], [0.25, 0.0, 1.0]], [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]))
def test_lumped_kernel_matches_scalar_loop_property(case):
    total, p2, m0, t_max, u_exp, u_jump = case
    u_exp, u_jump = np.array(u_exp, dtype=float), np.array(u_jump, dtype=float)
    if t_max is None:
        free, _ = _lumped_reference(total, p2, m0, np.inf, u_exp, u_jump)
        t_max = float(free[np.isfinite(free)][0]) if np.isfinite(free).any() else np.inf
    tau, nj = _kernels.lumped_batch(total, p2, m0, t_max, u_exp, u_jump)
    if case[3] is None:
        assert t_max == np.inf or t_max in tau  # absorbed at t_max itself: not censored
    ref_tau, ref_nj = _lumped_reference(total, p2, m0, t_max, u_exp, u_jump)
    assert tau.tobytes() == ref_tau.tobytes()
    assert np.array_equal(nj, ref_nj)


@pytest.mark.parametrize("block", [1, 7, simulate._LUMPED_BLOCK])
def test_lumped_sub_block_size_changes_no_value(monkeypatch, block):
    # sub-blocks draw the chunk's stream in order: 1 and 7 replicate-steps
    # give one and two rows at m0 = 3, and an uneven last block
    want = sample_coupling_times("independent", 4, 3, 1001, seed=5, t_max=1.5)
    monkeypatch.setattr(simulate, "_LUMPED_BLOCK", block)
    monkeypatch.setattr(simulate, "_LUMPED_ROWS", 1)
    got = sample_coupling_times("independent", 4, 3, 1001, seed=5, t_max=1.5)
    assert got[0].tobytes() == want[0].tobytes() and np.array_equal(got[1], want[1])
    assert np.isinf(got[0]).any() and np.isfinite(got[0]).any()
    tau, nj = sample_coupling_times("optimal", 4, 7, 4000, seed=99)
    assert float(tau.sum()).hex() == "0x1.c29de63786368p+12" and int(nj.sum()) == 21818


@pytest.mark.parametrize("workers", [1, 2])
def test_no_thread_outlives_a_call(monkeypatch, workers):
    # 70,000 runs at m0 = 40: three chunks of 11, 11 and 2 sub-blocks; 100
    # runs at m0 = 3: one chunk of one sub-block.  Every chunk has a helper
    # thread drawing one sub-block ahead.  Then the kernel fails on the
    # second sub-block, or on the only one
    kernel = _kernels.lumped_batch
    for replicates, m0, failing in ((70_000, 40, 1), (100, 3, 0)):
        before = threading.active_count()
        sample_coupling_times("optimal", 4, m0, replicates, seed=1, n_workers=workers)
        assert threading.active_count() == before
        calls = itertools.count()

        def fail_on_a_sub_block(*args):
            if next(calls) == failing:
                raise RuntimeError("kernel failed")
            return kernel(*args)

        monkeypatch.setattr(_kernels, "lumped_batch", fail_on_a_sub_block)
        with pytest.raises(RuntimeError, match="kernel failed"):
            sample_coupling_times("optimal", 4, m0, replicates, seed=1, n_workers=workers)
        assert threading.active_count() == before
        monkeypatch.setattr(_kernels, "lumped_batch", kernel)


def _marginal_reference(strategy, d, n, x0, y0, ev_count, offsets, u, paired):
    """Per-replicate scalar loop of the event kernel's contract; the
    unmatched count is recounted at every event."""
    def index(v, k):
        return min(int(v * k), k - 1)

    def skip(k, v):
        return k + (k >= v)

    xchg = np.zeros((len(ev_count), n), dtype=np.int64)
    ychg = np.zeros((len(ev_count), n), dtype=np.int64)
    xinc, yinc = np.zeros(d, dtype=np.int64), np.zeros(d, dtype=np.int64)
    joint = np.zeros(len(ev_count), dtype=np.int64)
    for r in range(len(ev_count)):
        x, y = [int(v) for v in x0], [int(v) for v in y0]
        for e in range(ev_count[r]):
            u0, u1, u2, u3 = (float(v) for v in u[offsets[r] + e])
            i = j = index(u1, n)
            matched = x[i] == y[i]
            block = {Strategy.OPTIMAL: d / (d - 1.0), Strategy.SYNCHRONOUS: 1.0,
                     Strategy.INDEPENDENT: 1.0 if matched else 2.0}[strategy]
            if not u0 * 2.0 < block:
                continue
            if strategy is Strategy.SYNCHRONOUS:
                delta = 1 + index(u2, d - 1)
                kx, ky = (x[i] + delta) % d, (y[i] + delta) % d
            elif strategy is Strategy.INDEPENDENT:
                k = index(u2 if matched else u3, d - 1)
                kx = skip(k, x[i]) if matched or u2 < 0.5 else x[i]
                ky = skip(k, y[i]) if matched or u2 >= 0.5 else y[i]
            else:
                m = sum(a != b for a, b in zip(x, y))
                c = kx = ky = index(u2, d)
                if not matched and paired[m] and c == 0:
                    j = [k for k in range(n) if k != i and x[k] != y[k]][index(u3, m - 1)]
                    kx, ky = y[i], x[j]
                elif not matched and paired[m] and c == 1:
                    kx, ky = x[i], y[i]
                elif not matched and paired[m]:
                    lo, hi = sorted((x[i], y[i]))
                    kx = ky = skip(skip(c - 2, lo), hi)
            if kx != x[i]:
                xinc[(kx - x[i]) % d] += 1
                xchg[r, i] += 1
            if ky != y[j]:
                yinc[(ky - y[j]) % d] += 1
                ychg[r, j] += 1
            joint[r] += kx != x[i] and ky != y[j]
            x[i], y[j] = kx, ky
    return xchg, ychg, xinc, yinc, joint


@st.composite
def _event_cases(draw):
    """(strategy, d, n, x0, y0, ev_count, u, paired) with zero and tied
    candidate counts, uniforms on the edges of the index cells, and a
    paired/singles table that is the optimal strategy's or arbitrary at
    levels >= 2."""
    strategy = draw(st.sampled_from([Strategy.OPTIMAL, Strategy.INDEPENDENT,
                                     Strategy.SYNCHRONOUS]))
    d, n, reps = draw(st.integers(2, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    x0 = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    y0 = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    ev_count = draw(st.lists(st.integers(0, 10), min_size=reps, max_size=reps))
    uniform = st.sampled_from([0.0, 0.25, 0.5, 0.75]) | st.floats(0.0, 1.0, exclude_max=True)
    u = draw(st.lists(st.lists(uniform, min_size=4, max_size=4),
                      min_size=sum(ev_count), max_size=sum(ev_count)))
    paired = list(death_chain(Strategy.OPTIMAL, d, n).c2 > 0)
    if draw(st.booleans()):
        paired[2:] = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    return strategy, d, n, x0, y0, ev_count, u, paired


@given(_event_cases())
@settings(max_examples=300, deadline=None)
# every count zero: no row is read
@example((Strategy.OPTIMAL, 3, 2, [0, 0], [1, 1], [0, 0, 0], [], None))
# tied counts, and a zero count between others
@example((Strategy.INDEPENDENT, 3, 2, [0, 1], [1, 1], [2, 0, 2, 1, 2],
          [[0.2, 0.7, 0.4, 0.1], [0.6, 0.1, 0.8, 0.5], [0.3, 0.3, 0.6, 0.9],
           [0.1, 0.9, 0.2, 0.2], [0.4, 0.5, 0.7, 0.3], [0.9, 0.2, 0.1, 0.6],
           [0.7, 0.0, 0.5, 0.4]], None))
@example((Strategy.OPTIMAL, 4, 3, [0, 0, 1], [1, 2, 1], [3, 0, 3],
          [[0.2, 0.1, 0.3, 0.5], [0.5, 0.9, 0.6, 0.1], [0.1, 0.4, 0.9, 0.9],
           [0.3, 0.5, 0.1, 0.5], [0.6, 0.2, 0.2, 0.3], [0.2, 0.8, 0.7, 0.0]], None))
# n = 1 and d = 2: one coordinate, one value to move to
@example((Strategy.SYNCHRONOUS, 2, 1, [0], [1], [2, 1],
          [[0.1, 0.5, 0.5, 0.5], [0.6, 0.5, 0.5, 0.5], [0.4, 0.0, 0.9, 0.1]], None))
@example((Strategy.OPTIMAL, 2, 1, [1], [0], [2], [[0.1, 0.3, 0.2, 0.7], [0.4, 0.6, 0.8, 0.2]],
          None))
# pairing rows at paired levels with 4 unmatched coordinates (i = 2,
# j = 3), and with 3 after a fresh-value match (i = 1, j = 3)
@example((Strategy.OPTIMAL, 4, 5, [0, 0, 0, 0, 2], [1, 1, 1, 1, 2], [1, 2],
          [[0.1, 0.5, 0.1, 0.9], [0.1, 0.0, 0.5, 0.0], [0.1, 0.3, 0.1, 0.7]], None))
def test_event_kernel_matches_scalar_loop_property(case):
    strategy, d, n, x0, y0, ev_count, u, paired = case
    if paired is None:
        paired = death_chain(Strategy.OPTIMAL, d, n).c2 > 0
    ev_count = np.array(ev_count, dtype=np.int64)
    offsets = np.cumsum(ev_count) - ev_count
    u = np.array(u, dtype=float).reshape(-1, 4)
    got = _kernels.marginal_batch(strategy, d, n, np.array(x0), np.array(y0), ev_count,
                                  offsets, u, np.array(paired))
    want = _marginal_reference(strategy, d, n, x0, y0, ev_count, offsets, u, paired)
    for out, ref in zip(got, want, strict=True):
        assert out.dtype == np.int64 and out.tobytes() == ref.tobytes()


# --- golden seeded outputs ----------------------------------------------------
# Hex values pinned from the kernels before the death-chain refactor; any
# change to draw consumption or kernel arithmetic shows here bit for bit.
# The two Poisson statistics of each report are within 1.2e-15 of a
# 40-digit value.

@pytest.mark.parametrize("strategy,tau_sum,nj_sum", [
    ("optimal", "0x1.c29de63786368p+12", 21818),
    ("independent", "0x1.e3c1e15e25ceep+13", 28000),
    ("pairwise-classic", "0x1.4bf673ab23d00p+13", 24010),
])
def test_golden_coupling_times(strategy, tau_sum, nj_sum):
    tau, nj = sample_coupling_times(strategy, 4, 7, 4000, seed=99)
    assert float(tau.sum()).hex() == tau_sum
    assert int(nj.sum()) == nj_sum


def test_golden_independent_coupling_times_digest():
    # sha256 of tau then the jump counts, pinned before the kernel skipped
    # the -2 test on tables with no -2 jump; one chunk of seven sub-blocks
    want = "282676ee293b4427a73055f95e0391461e66b798ed1e53d6bf18d201c0ab16da"
    tau, nj = sample_coupling_times("independent", 4, 40, 20_000, seed=7)
    assert hashlib.sha256(tau.tobytes() + nj.tobytes()).hexdigest() == want
    # rows own their uniforms, so they are the first rows of chunk 0 of a
    # three-chunk run too: three workers and three helpers on fewer cores,
    # switching threads every microsecond, draw the same stream
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tau, nj = sample_coupling_times("independent", 4, 40, 70_000, seed=7, n_workers=3)
    finally:
        sys.setswitchinterval(interval)
    assert hashlib.sha256(tau[:20_000].tobytes() + nj[:20_000].tobytes()).hexdigest() == want


@pytest.mark.parametrize("strategy,stats", [
    ("optimal", ["0x1.4f6cb510acee5p+3", "0x1.798a8bcbaf09cp+3",
                 "0x1.3fd334ec3dce6p+1", "0x1.7ea620889eab5p+1"]),
    ("independent", ["0x1.c3e9d460d4469p+3", "0x1.cf1303f956c4fp+2",
                     "0x1.bda2377c92a8ap-3", "0x1.b35b1a2cd355fp-2"]),
    ("synchronous", ["0x1.faacce8f21648p+2", "0x1.faacce8f21648p+2",
                     "0x1.f55a807526d13p+2", "0x1.f55a807526d13p+2"]),
])
def test_golden_marginal_statistics(strategy, stats):
    report = validate_marginals(strategy, WalkParams(d=3, n=4), 4.0, 300, seed=55)
    assert [t.statistic.hex() for t in report.tests] == stats


@pytest.mark.parametrize("strategy,stats,means", [
    ("optimal", ["0x1.e7faeeaf973eap+3", "0x1.8aa1dc9dad862p+4",
                 "0x1.bc37e3f837c71p+1", "0x1.f5e071afc5d80p+1"],
     ["0x1.3f6c0d6f544bbp+3", "0x1.3f7f8ca8198f2p+3"]),
    ("independent", ["0x1.321187b27b9a3p+4", "0x1.65a397f0efd68p+5",
                     "0x1.5bcd629544c92p+1", "0x1.ae3d748160669p+0"],
     ["0x1.3fc9eecbfb15bp+3", "0x1.3f73c0c1fc8f3p+3"]),
])
def test_golden_readme_marginals(strategy, stats, means):
    # the README validate-marginals size, pinned before the event kernel
    # moved to a sorted live prefix with flat state indices
    report = validate_marginals(strategy, WalkParams(d=4, n=5), 10.0, 10_000, 0)
    assert [t.statistic.hex() for t in report.tests] == stats
    assert [report.mean_changes_x.hex(), report.mean_changes_y.hex()] == means


def test_golden_event_kernel():
    # sha256 of every output of the event kernel on 220 seeded random
    # configurations, pinned from the per-replicate scalar loop it replaced.
    # (d, n) runs twice over {2..11} x {1..11}, so d = 2 (no fresh value)
    # and n = 1 are in; random starts leave some coordinates matched, and
    # paired levels with >= 3 unmatched coordinates occur at larger n.
    digest = hashlib.sha256()
    rng = np.random.default_rng(2024)
    for idx in range(220):
        d, n = 2 + idx % 10, 1 + idx // 10 % 11
        x0, y0 = rng.integers(0, d, n), rng.integers(0, d, n)
        ev_count = rng.poisson(2 * n * rng.uniform(0.1, 1.5), rng.integers(1, 9))
        offsets = np.concatenate([[0], np.cumsum(ev_count)[:-1]])
        u = rng.random((int(ev_count.sum()), 4))
        paired = death_chain(Strategy.OPTIMAL, d, n).c2 > 0
        for strategy in (Strategy.OPTIMAL, Strategy.INDEPENDENT, Strategy.SYNCHRONOUS):
            for out in _kernels.marginal_batch(strategy, d, n, x0, y0, ev_count,
                                               offsets, u, paired):
                digest.update(np.ascontiguousarray(out, dtype=np.int64).tobytes())
    assert digest.hexdigest() == (
        "c6ad9107d7a5e3014df30a1d832fa8039746dbea89fe4de2a7c42a2ae671df03")


def test_import_does_not_load_scipy_stats():
    # import, TV, the stationary tail, the float mean and marginal
    # validation load no scipy module at all
    src = str(Path(__import__("cowalk").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, cowalk, cowalk.cli\n"
            "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not scipy(), scipy()\n"
            "cowalk.tv_exact(3, 1000, 1.0); cowalk.cutoff_profile(3, 1000, [-1.0, 2.0])\n"
            "cowalk.survival_from_stationary(3, 50, [0.0, 1.0])\n"
            "cowalk.mean_tau_stationary(3, 5000)\n"
            "assert not scipy(), scipy()\n"
            "r = cowalk.validate_marginals('optimal', cowalk.WalkParams(d=3, n=2), 2.0, 100, 1)\n"
            "assert r.passed and not scipy(), scipy()")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_chi2_sf_matches_scipy():
    from scipy.special import chdtrc

    for dof in range(1, 61):
        for x in (1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, dof / 3, dof / 2, dof, 1.5 * dof,
                  2 * dof, 3 * dof + 10, 50.0, 100.0, 200.0, 400.0, 700.0, 1000.0):
            ref = chdtrc(dof, x)
            assert simulate._chi2_sf(dof, x) == pytest.approx(ref, rel=1e-12, abs=0)
    assert simulate._chi2_sf(3, 0.0) == 1.0


def _head(pmf, q=1.0 - 1e-9):
    """pmf through the q-quantile, the levels the Poisson chi-square bins."""
    return pmf[:int(np.searchsorted(np.cumsum(pmf), q)) + 1]


def test_poisson_pmf_matches_scipy_quantile_and_pmf():
    # the scipy route: quantile from pdtrik, pmf from logs, tail from pdtrc
    from scipy.special import gammaln, pdtr, pdtrc, pdtrik, xlogy

    q = 1.0 - 1e-9
    for mean in (0.01, 0.5, 1.0, 2.5, 4.0, 10.0, 33.3, 100.0, 250.0, 900.0):
        hi = math.ceil(pdtrik(q, mean))
        if hi > 0 and pdtr(hi - 1, mean) >= q:
            hi -= 1
        pmf = simulate._poisson_pmf(mean)
        assert _head(pmf).size == hi + 1
        k = np.arange(hi + 1)
        ref = np.exp(xlogy(k, mean) - gammaln(k + 1) - mean)
        # scipy's exp of a log is off by about |its terms| 2^-53, the
        # recurrence by about |k - mode| 2^-53
        tol = 1e-15 * (np.abs(xlogy(k, mean)) + gammaln(k + 1) + mean + np.abs(k - math.floor(mean)) + 1)
        live = ref > 1e-300
        assert np.all(np.abs(pmf[:hi + 1] - ref)[live] <= tol[live] * ref[live])
        assert pmf[hi + 1:].sum() == pytest.approx(pdtrc(hi, mean), rel=1e-11)
        assert pmf[-1] < 1e-30


def _mp_poisson_p_value(mpmath, counts, mean, pmf):
    """40-digit p-value of the pooled Poisson chi-square, with the bins the
    package pools from ``pmf``."""
    n_obs = counts.size
    edges, acc = [0], 0.0
    for k in range(pmf.size):
        acc += pmf[k] * n_obs
        if acc >= 5.0:
            edges.append(k + 1)
            acc = 0.0
    edges[-1] = pmf.size
    observed = np.histogram(np.minimum(counts, pmf.size - 1), bins=edges)[0]
    mu = mpmath.mpf(mean)
    probs = [mpmath.fsum(mpmath.exp(-mu) * mu**k / mpmath.factorial(k) for k in range(a, b))
             for a, b in zip(edges[:-2], edges[1:-1])]
    probs.append(1 - mpmath.fsum(probs))
    stat = mpmath.fsum((int(o) - n_obs * p) ** 2 / (n_obs * p) for o, p in zip(observed, probs))
    return len(probs) - 1, mpmath.gammainc(mpmath.mpf(len(probs) - 1) / 2, stat / 2,
                                           mpmath.inf, regularized=True)


@pytest.mark.parametrize("strategy,seed", [("optimal", 0), ("optimal", 1), ("independent", 7)])
def test_poisson_chisq_p_values_against_40_digits(monkeypatch, strategy, seed):
    # the README validate-marginals command (seed 0) and its siblings
    mpmath = pytest.importorskip("mpmath")
    seen = []
    real = simulate._poisson_chisq
    monkeypatch.setattr(simulate, "_poisson_chisq",
                        lambda counts, mean, name: seen.append((counts, mean))
                        or real(counts, mean, name))
    report = validate_marginals(strategy, WalkParams(d=4, n=5), 10.0, 10_000, seed)
    with mpmath.workdps(40):
        for test, (counts, mean) in zip(report.tests, seen):
            dof, ref = _mp_poisson_p_value(mpmath, counts, mean,
                                           _head(simulate._poisson_pmf(mean)))
            assert test.dof == dof == 23
            assert abs(test.p_value - ref) <= 1e-13 * ref


def test_lumped_sampler_working_set_is_bounded():
    # m0 = 2048: the uniforms of one chunk would take 256 MB in one block
    tracemalloc.start()
    try:
        tau, nj = sample_coupling_times("optimal", 4, 2048, 8192, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert float(tau.sum()).hex() == "0x1.7dadb4a23ae1fp+15"
    assert nj.sum() == 12582650
    assert peak < 128 * 2**20


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the working set of R runs from start level 40 is the output, 16 B per
# replicate (tau and the jump count), plus each worker's draw buffers: two
# uniform sub-blocks of two numbers a step and one holding-time block of
# one, all of 3,276 rows of 40 steps (5 MB in all); 2 MB covers the rate
# tables and the kernel's per-sub-block arrays.  There is no concatenation
# copy and no sorted copy.
_R = 2**20
_DRAW_BUFFERS = 5 * (simulate._LUMPED_BLOCK // 40) * 40 * 8


@pytest.mark.parametrize("workers", [1, 2])
def test_lumped_sampler_peak_is_output_plus_draw_buffers(workers):
    peak = _traced_peak(lambda: sample_coupling_times("optimal", 4, 40, _R, seed=1,
                                                      n_workers=workers))
    assert peak <= 16 * _R + workers * _DRAW_BUFFERS + 2 * 2**20


def test_survival_curve_peak_is_output_plus_draw_buffers():
    grid = np.linspace(0.0, 12.0, 200)
    peak = _traced_peak(lambda: estimate_survival("optimal", 4, 40, grid, _R, seed=3))
    assert peak <= 16 * _R + _DRAW_BUFFERS + 2 * 2**20


def test_marginal_validation_working_set_is_bounded():
    # 8192 replicates of about 400 candidate events: one chunk whose
    # uniforms (105 MB) are drawn in several sub-blocks
    tracemalloc.start()
    try:
        report = validate_marginals("optimal", WalkParams(d=4, n=20), 10.0, 8192, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Poisson statistics within 7.2e-16 of a 40-digit value
    assert [t.statistic.hex() for t in report.tests] == [
        "0x1.1fbeb4106bf15p+4", "0x1.279a4b3872aabp+4",
        "0x1.a0adf71bd4214p-3", "0x1.4d7148086085ep-5"]
    assert report.mean_changes_x.hex() == "0x1.4027e66666666p+3"
    assert report.mean_changes_y.hex() == "0x1.4029266666666p+3"
    assert peak < 48 * 2**20


def test_marginal_validation_readme_size_working_set():
    # the README command's size: one chunk of two sub-blocks of uniforms
    # (about 15 MB each), drawn in turn into one buffer
    tracemalloc.start()
    try:
        validate_marginals("optimal", WalkParams(d=4, n=5), 10.0, 10_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


@pytest.mark.parametrize("n,horizon,replicates", [
    (1, math.nextafter(2.0**17, math.inf), 1),  # 2*n*horizon just above 2^18
    (4, 8.0, 2**24 + 1),  # 64 candidates per replicate, 2^30 + 64 in all
])
def test_marginal_validation_cost_is_bounded(n, horizon, replicates):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2\^18 per replicate .* 2\^30 in all"):
            validate_marginals("optimal", WalkParams(d=4, n=n), horizon, replicates, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # refused before any draw
