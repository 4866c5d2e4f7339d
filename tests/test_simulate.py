import hashlib
import os
import subprocess
import sys
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
from cowalk.states import WalkParams, hamming
from cowalk.strategies import Strategy, death_chain


def test_trivial_coupling_from_equal_states():
    x = np.zeros(6, dtype=int)
    tau, nj = sample_coupling_times(Strategy.OPTIMAL, 4, hamming(x, x), 1, seed=1)
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


def test_estimate_survival_accepts_state_pairs():
    x = np.array([0, 0, 0, 0])
    y = np.array([1, 2, 0, 0])
    grid = np.array([0.5])
    a = estimate_survival(Strategy.OPTIMAL, 3, (x, y), grid, 500, seed=8)
    b = estimate_survival(Strategy.OPTIMAL, 3, 2, grid, 500, seed=8)
    assert (a.value == b.value).all()


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


def test_simulate_coupling_censoring_sentinel():
    m0 = hamming(np.zeros(5, dtype=int), np.array([1, 2, 3, 1, 2]))
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
    got = sample_coupling_times("independent", 4, 3, 1001, seed=5, t_max=1.5)
    assert got[0].tobytes() == want[0].tobytes() and np.array_equal(got[1], want[1])
    assert np.isinf(got[0]).any() and np.isfinite(got[0]).any()
    tau, nj = sample_coupling_times("optimal", 4, 7, 4000, seed=99)
    assert float(tau.sum()).hex() == "0x1.c29de63786368p+12" and int(nj.sum()) == 21818


# --- golden seeded outputs ----------------------------------------------------
# Hex values pinned from the kernels before the death-chain refactor; any
# change to draw consumption or kernel arithmetic shows here bit for bit.

@pytest.mark.parametrize("strategy,tau_sum,nj_sum", [
    ("optimal", "0x1.c29de63786368p+12", 21818),
    ("independent", "0x1.e3c1e15e25ceep+13", 28000),
    ("pairwise-classic", "0x1.4bf673ab23d00p+13", 24010),
])
def test_golden_coupling_times(strategy, tau_sum, nj_sum):
    tau, nj = sample_coupling_times(strategy, 4, 7, 4000, seed=99)
    assert float(tau.sum()).hex() == tau_sum
    assert int(nj.sum()) == nj_sum


@pytest.mark.parametrize("strategy,stats", [
    ("optimal", ["0x1.4f6cb510acf91p+3", "0x1.798a8bcbaf173p+3",
                 "0x1.3fd334ec3dce6p+1", "0x1.7ea620889eab5p+1"]),
    ("independent", ["0x1.c3e9d460d4556p+3", "0x1.cf1303f956cf3p+2",
                     "0x1.bda2377c92a8ap-3", "0x1.b35b1a2cd355fp-2"]),
    ("synchronous", ["0x1.faacce8f217d4p+2", "0x1.faacce8f217d4p+2",
                     "0x1.f55a807526d13p+2", "0x1.f55a807526d13p+2"]),
])
def test_golden_marginal_statistics(strategy, stats):
    report = validate_marginals(strategy, WalkParams(d=3, n=4), 4.0, 300, seed=55)
    assert [t.statistic.hex() for t in report.tests] == stats


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
    src = str(Path(__import__("cowalk").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, cowalk, cowalk.cli; assert 'scipy.stats' not in sys.modules; "
            "cowalk.validate_marginals('optimal', cowalk.WalkParams(d=3, n=2), 2.0, 100, 1); "
            "assert 'scipy.stats' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


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


def test_marginal_validation_working_set_is_bounded():
    # 8192 replicates of about 400 candidate events: one chunk whose
    # uniforms (105 MB) are drawn in several sub-blocks
    tracemalloc.start()
    try:
        report = validate_marginals("optimal", WalkParams(d=4, n=20), 10.0, 8192, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t.statistic.hex() for t in report.tests] == [
        "0x1.1fbeb410621bap+4", "0x1.279a4b3874ca5p+4",
        "0x1.a0adf71bd4214p-3", "0x1.4d7148086085ep-5"]
    assert report.mean_changes_x.hex() == "0x1.4027e66666666p+3"
    assert report.mean_changes_y.hex() == "0x1.4029266666666p+3"
    assert peak < 48 * 2**20
