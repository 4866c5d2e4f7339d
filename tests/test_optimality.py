import hashlib
from fractions import Fraction

import numpy as np
import pytest

from cowalk import optimality
from cowalk.exact import SignCert, survival_table
from cowalk.optimality import (
    _lp_vertices,
    bellman_gap,
    dominance_test,
    sample_feasible_schedules,
    verify_argmax_grid,
)
from cowalk.strategies import RateSchedule, Strategy, _singles_mode
from references import level_schedule


def test_bellman_gap_zero_for_optimal():
    for d, m, t in [(2, 4, 0.5), (4, 6, 1.0), (10, 3, 2.0)]:
        assert bellman_gap(d, m, t, level_schedule(Strategy.OPTIMAL, m, d)) == 0.0


def test_bellman_gap_nonpositive_for_sampled_feasible():
    worst = -np.inf
    for d in (2, 4, 10):
        for m in (1, 3, 6, 10):
            tails = survival_table(d, m + 2, [0.5, 1.0, 2.0], 1e-12).values
            for j, t in enumerate((0.5, 1.0, 2.0)):
                for sched in sample_feasible_schedules(d, m, 25, seed=17 * d + m):
                    gap = bellman_gap(d, m, t, sched, tails=tails[:, j])
                    worst = max(worst, gap)
    assert worst <= 4e-12


def test_bellman_gap_strictly_negative_for_up_mass():
    sched = RateSchedule(up1=Fraction(1))
    gap = bellman_gap(4, 3, 1.0, sched)
    assert gap < -1e-4  # r(4) at t=1 is macroscopic


def test_bellman_gap_rejects_infeasible():
    with pytest.raises(ValueError):
        bellman_gap(4, 2, 1.0, RateSchedule(down1=Fraction(100)))


PIN_GRID = np.array([0.01, 0.037, 0.2, 0.55, 1.3, 2.9, 6.1, 10.0])


def test_bellman_gaps_are_pinned():
    # the float bits of every gap of a loop shaped like the benchmark's
    # argmax op, and the float reprs of the schedules it samples
    gap_digest, sched_digest = hashlib.sha256(), hashlib.sha256()
    for d in (2, 3, 4, 10):
        for m in range(1, 11):
            tails = survival_table(d, m + 2, PIN_GRID, 1e-12).values
            for j, t in enumerate(PIN_GRID):
                scheds = sample_feasible_schedules(d, m, 50, seed=7919 * m + 31 * d + j)
                sched_digest.update(";".join(
                    ",".join(repr(float(r)) for r in (s.down2, s.down1, s.up1, s.up2))
                    for s in scheds).encode())
                gaps = [bellman_gap(d, m, float(t), s, 1e-12, tails=tails[:, j])
                        for s in scheds]
                gap_digest.update(np.asarray(gaps, dtype="<f8").tobytes())
    assert gap_digest.hexdigest() == (
        "2432563517b32c0c0a5f896c099e46b3b7de2d1bf40a27d22e77a03ec63adf74")
    assert sched_digest.hexdigest() == (
        "e981e76273820485a290b8d917679fc8ff7a82ff892996479f459e138ef3ea5d")


def _scalar_samples(d, m, count, seed):
    """The rejection loop with one scalar ``uniform`` draw per rate."""
    rng = np.random.default_rng(seed)
    box1, box2 = m * d / (d - 1), m / (d - 1)
    out = []
    while len(out) < count:
        lam1 = rng.uniform(0, box1)
        lam2 = rng.uniform(0, box2)
        if (d - 1) * (lam1 + 2 * lam2) <= m * d:
            out.append((lam2, lam1))
    return out


@pytest.mark.parametrize("count", [0, 1, 50, 200])
@pytest.mark.parametrize("d", [2, 3, 10])
@pytest.mark.parametrize("m", [1, 7, 40])
def test_block_sampler_equals_scalar_draws(count, d, m):
    for seed in (0, 5, 7919 * m + d):
        scheds = sample_feasible_schedules(d, m, count, seed)
        assert len(scheds) == count + 4
        ref = _scalar_samples(d, m, count, seed)
        for s, (lam2, lam1) in zip(scheds[4:], ref):
            assert type(s.down2) is float and type(s.down1) is float
            assert s.down2 == lam2 and s.down1 == lam1
            assert s.up1 == 0 and s.up2 == 0


def test_bellman_gap_refuses_short_tails():
    tails = survival_table(4, 5, [1.0], 1e-12).values[:, 0]
    with pytest.raises(ValueError, match="at least 7"):
        bellman_gap(4, 4, 1.0, level_schedule(Strategy.OPTIMAL, 4, 4), tails=tails[:6])
    assert bellman_gap(4, 3, 1.0, level_schedule(Strategy.OPTIMAL, 3, 4), tails=tails) == 0.0


@pytest.mark.parametrize("m", [1, 2])
def test_bellman_gap_reads_no_tail_at_level_zero(m):
    # v(level <= 0) = 0 whatever tails[0] holds
    d, t = 3, 0.7
    tails = survival_table(d, m + 2, [t], 1e-12).values[:, 0].copy()
    for sched in sample_feasible_schedules(d, m, 10, seed=m):
        tails[0] = 0.0
        zero = bellman_gap(d, m, t, sched, tails=tails)
        tails[0] = 0.25
        assert bellman_gap(d, m, t, sched, tails=tails) == zero


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_vertices_bound_every_sampled_gap(d):
    # the gap is linear in the rates, so random interior schedules add nothing
    grid = [0.05, 0.7, 3.0]
    tails = survival_table(d, 11, grid, 1e-12).values
    for m in (1, 2, 5, 9):
        for j, t in enumerate(grid):
            vertex_max = max(bellman_gap(d, m, t, v, tails=tails[:, j])
                             for v in _lp_vertices(m, d))
            sampled = sample_feasible_schedules(d, m, 200, seed=31 * m + j)[4:]
            sampled_max = max(bellman_gap(d, m, t, s, tails=tails[:, j]) for s in sampled)
            assert sampled_max <= vertex_max + 1e-15, (d, m, t)


def test_sampled_schedules_are_feasible():
    for sched in sample_feasible_schedules(5, 7, 50, seed=3):
        assert sched.is_feasible(7, 5)


def test_argmax_grid_d4():
    rep = verify_argmax_grid(4, 10, np.geomspace(0.05, 5.0, 12))
    assert rep.n_violations == 0
    assert all(cell.equals_optimal for cell in rep.cells)


def test_argmax_grid_d2_ties_only_at_noise_level():
    # no cell of the d = 2 grid is within noise: a certified sign decides each
    rep = verify_argmax_grid(2, 10, np.geomspace(0.05, 5.0, 12))
    assert rep.n_violations == 0
    assert rep.n_ties == 0


@pytest.mark.parametrize("competitor", ["independent", "synchronous", "pairwise-classic"])
def test_dominance_small(competitor):
    rep = dominance_test(4, 5, Strategy(competitor), [0.3, 0.8, 1.5, 3.0],
                         replicates=20_000, seed=12)
    assert rep.passed, rep.violations


def test_dominance_synchronous_curve_is_one():
    rep = dominance_test(3, 4, Strategy.SYNCHRONOUS, [0.5, 2.0], 1000, seed=1)
    assert (rep.empirical.value == 1.0).all()
    assert rep.passed


def test_dominance_pairwise_d2_is_statistically_tight():
    # at d=2 the pairwise strategy IS the optimal one: curves agree within
    # Monte Carlo noise at every point
    grid = np.array([0.2, 0.5, 1.0, 2.0])
    rep = dominance_test(2, 6, Strategy.PAIRWISE_CLASSIC, grid, 100_000, seed=23)
    assert rep.passed
    sigma = np.sqrt(rep.exact_tail * (1 - rep.exact_tail) / 100_000)
    assert (np.abs(rep.empirical.value - rep.exact_tail) <= 4 * sigma).all()


def test_dominance_keeps_width_where_no_replicate_survives():
    # no replicate survives to t = 15 (p-hat = 0) while the optimal tail is
    # 6.2e-9: a zero-width Wald bound would call that a violation
    rep = dominance_test(4, 3, Strategy.INDEPENDENT, [15.0], 2000, seed=1)
    assert rep.empirical.value[0] == 0.0 and rep.exact_tail[0] > 1e-9
    assert rep.passed and rep.max_deficit == 0.0


def test_dominance_rejects_optimal_as_competitor():
    with pytest.raises(ValueError):
        dominance_test(3, 3, Strategy.OPTIMAL, [1.0], 1000, seed=0)


GRID = np.geomspace(0.01, 10, 20)


@pytest.mark.parametrize("d", [3, 10])
def test_argmax_grid_has_no_ties_where_every_sign_is_certified(d):
    # every cell is certified; a float tie tolerance of 4*m*eps/(d-1) made
    # 95 (d = 3) and 142 (d = 10) of them ties
    rep = verify_argmax_grid(d, 30, GRID)
    assert rep.n_ties == 0 and rep.n_violations == 0
    assert all(c.status == "match" and c.equals_optimal for c in rep.cells)


def test_argmax_grid_d4_ties_only_on_the_zero_row():
    # R(2) - R(3) is the zero function at d = 4, so row m = 3 is an exact tie
    rep = verify_argmax_grid(4, 30, GRID)
    assert sorted((c.m, c.t) for c in rep.cells if c.status == "tie") == [
        (3, float(t)) for t in GRID]
    assert rep.n_violations == 0
    assert all(c.equals_optimal for c in rep.cells)


def test_undetermined_certificates_make_ties_not_matches():
    rep = verify_argmax_grid(4, 60, GRID)
    # r(m, t) >= 0 is a theorem, so cell (m, t) reads only the sign of
    # r(m-1, t) - r(m, t); every row is signed, so the only ties lie on the
    # zero row m = 3
    assert not (rep.diff_certs == SignCert.UNDETERMINED.value).any()
    assert sorted((c.m, c.t) for c in rep.cells if c.status == "tie") == [
        (3, float(t)) for t in GRID]
    assert rep.n_violations == 0


@pytest.mark.parametrize("d, eps", [(4, 1e-100), (10, 1e-100), (2, 1e-16), (2, 1e-100)])
def test_argmax_grid_reads_no_rounding_noise_at_small_eps(d, eps):
    # the float differences at these eps are rounding noise in some cells;
    # the signs come from whole rows, so no cell is a violation
    rep = verify_argmax_grid(d, 30, GRID, eps)
    assert rep.n_violations == 0
    assert all(c.equals_optimal for c in rep.cells)


def test_argmax_cells_follow_the_regime_rule_for_every_sign(monkeypatch):
    # forge one sign per diff row, each on one even and one odd level; at
    # d = 2 every odd level runs in singles mode and every even one paired
    real = optimality._level_signs
    forged = np.array([c.value for c in SignCert for _ in range(2)], dtype=object)

    def forge(d, m_max):
        d, r_signs, _ = real(d, m_max)
        return d, r_signs, np.repeat(forged[:, None], 2, axis=1)

    monkeypatch.setattr(optimality, "_level_signs", forge)
    d, grid = 2, [0.5, 1.0, 2.0, 4.0]
    rep = verify_argmax_grid(d, 9, grid)
    for c in rep.cells:
        if c.m == 1:  # no diff row: -r(1, t) < 0, the singles vertex
            assert (c.status, c.equals_optimal) == ("match", True)
            continue
        sign = SignCert(forged[c.m - 2])
        mode = SignCert.NEGATIVE if _singles_mode(c.m, d) else SignCert.POSITIVE
        if sign in (SignCert.POSITIVE, SignCert.NEGATIVE):
            assert c.status == ("match" if sign is mode else "violation")
            assert c.equals_optimal == (sign is mode)
        else:  # a tie reports the paired vertex
            assert c.status == "tie"
            assert c.equals_optimal == (mode is SignCert.POSITIVE)
    assert rep.n_violations == 2 * len(grid) and rep.n_ties == 4 * len(grid)


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_argmax_cells_at_t_zero(d):
    # every tail at t = 0 is 1{m >= 1}: the second difference is 1 at m = 2
    # (the paired vertex) and 0 beyond, and m = 1 takes the singles vertex
    rep = verify_argmax_grid(d, 6, [0.0, 0.0])
    assert [(c.m, c.status) for c in rep.cells] == [
        (m, "match" if m <= 2 else "tie") for m in range(1, 7) for _ in range(2)]
    assert all(c.equals_optimal == (c.m <= 2 or not _singles_mode(c.m, d)) for c in rep.cells)


@pytest.mark.parametrize("d", [2, 4, 10])
def test_argmax_cells_at_large_t_are_those_at_t_one(d):
    # each sign holds for all t > 0 at once, so t = 1e9 reads as t = 1
    def verdicts(t):
        return [(c.m, c.status, c.equals_optimal) for c in verify_argmax_grid(d, 30, [t]).cells]

    assert verdicts(1e9) == verdicts(1.0)


def test_per_level_verdicts_are_pinned():
    # sha256 of every status, equals_optimal and certificate at t = 0 and
    # t = 1, pinned while the signs were read off r_diff_table; the same
    # check against that code at m_max = 120 and 200 agreed too
    digest = hashlib.sha256()
    for d in (2, 3, 4, 5, 10, 50):
        for m_max in (1, 2, 5, 30):
            rep = verify_argmax_grid(d, m_max, [0.0, 1.0])
            digest.update(repr([(c.m, c.t, c.status, c.equals_optimal)
                                for c in rep.cells]).encode())
            for certs in (rep.r_certs, rep.diff_certs):
                digest.update(",".join(certs.ravel()).encode() + b";")
    assert digest.hexdigest() == (
        "132cae2496e909193960768b03df9b4bb71e80975a040afcca619bc827f06f04")


README_GRID = np.linspace(0.0, 10.0, 50)[1:]  # verify's default grid, t = 0 dropped
BASELINES = [Strategy.INDEPENDENT, Strategy.SYNCHRONOUS, Strategy.PAIRWISE_CLASSIC]


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_vertex_gaps_are_the_signed_rows_where_the_bellman_verdict_holds(d):
    # verify's former float route, kept as a reference: on an m_max + 2 table
    # every vertex gap is within 4 eps m_max of 0 or below, and each is the
    # one-signed combination of r rows that the verdict reads
    m_max, eps = 10, 1e-12
    rep = verify_argmax_grid(d, m_max, README_GRID, eps)
    assert rep.n_violations == 0 and not (rep.diff_certs == SignCert.UNDETERMINED.value).any()
    tails = survival_table(d, m_max + 2, README_GRID, eps).values
    r = np.vstack([np.zeros(len(README_GRID)), np.diff(tails, axis=0)])  # r[0] = 0
    for m in range(1, m_max + 1):
        singles = _singles_mode(m, d)
        diff = m / (d - 1) * (r[m - 1] - r[m])
        cap = -m * (d - 2) / (d - 1) * r[m] + (diff if singles else 0)
        opt = level_schedule(Strategy.OPTIMAL, m, d)
        no_move = -(float(opt.down2) * (r[m] + r[m - 1]) + float(opt.down1) * r[m])
        paired_gap, singles_gap = (diff, 0 * diff) if singles else (0 * diff, -diff)
        for j, t in enumerate(README_GRID):
            gaps = [bellman_gap(d, m, float(t), v, eps, tails=tails[:, j])
                    for v in _lp_vertices(m, d)]
            assert max(gaps) <= 4 * eps * m_max, (m, t)
            closed = [no_move[j], paired_gap[j], singles_gap[j], cap[j]]
            assert np.allclose(gaps, closed, rtol=0, atol=1e-14), (m, t)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("competitor", BASELINES)
def test_monte_carlo_dominance_passes_where_the_exact_sign_holds(d, competitor):
    sign = optimality._dominance_sign(d, 5, competitor)
    assert sign in ("positive", "zero")
    rep = dominance_test(d, 5, competitor, [0.3, 0.8, 1.5, 3.0], 20_000, seed=29)
    assert rep.passed, rep.violations


def test_dominance_signs_at_d2():
    # pairwise-classic is the Connor-Jacka hypercube coupling, optimal at
    # d = 2; independent exits level 1 at the optimal rate 2 only
    for m in range(1, 41):
        assert optimality._dominance_sign(2, m, Strategy.PAIRWISE_CLASSIC) == "zero"
        assert optimality._dominance_sign(2, m, Strategy.INDEPENDENT) == (
            "zero" if m == 1 else "positive")
        assert optimality._dominance_sign(2, m, Strategy.SYNCHRONOUS) == "positive"


@pytest.mark.parametrize("d", [3, 4, 10])
def test_every_baseline_is_strictly_slower_beyond_d2(d):
    for competitor in BASELINES:
        for m in (1, 2, 3, 5, 8, 13, 21, 40):
            assert optimality._dominance_sign(d, m, competitor) == "positive", (competitor, m)
