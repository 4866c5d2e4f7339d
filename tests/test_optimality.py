from fractions import Fraction

import numpy as np
import pytest

from cowalk.exact import survival_table
from cowalk.optimality import (
    bellman_gap,
    dominance_test,
    feasible_max,
    sample_feasible_schedules,
    verify_argmax_grid,
)
from cowalk.strategies import RateSchedule, Strategy, optimal_rates


def r_values(d, m, t, eps=1e-12):
    v = survival_table(d, m, [t], eps).values[:, 0]
    r_m = v[m] - v[m - 1]
    r_prev = v[m - 1] - v[m - 2] if m >= 2 else 0.0
    return float(r_m), float(r_prev)


def test_feasible_max_picks_cap_vertex_for_d4():
    for m in (2, 5, 9):
        r_m, r_prev = r_values(4, m, 1.0)
        res = feasible_max(4, m, r_m, r_prev)
        assert res.schedule == optimal_rates(m, 4)
        assert not res.tie
        assert res.schedule.saturates_budget(m, 4)


def test_feasible_max_picks_single_vertex_at_d2_odd():
    for m in (3, 5, 7):
        r_m, r_prev = r_values(2, m, 0.8)
        res = feasible_max(2, m, r_m, r_prev)
        assert res.schedule == optimal_rates(m, 2)
        assert res.schedule.down2 == 0
        assert res.schedule.down1 == Fraction(2 * m)


def test_feasible_max_cap_vertex_at_d2_even():
    r_m, r_prev = r_values(2, 6, 0.8)
    res = feasible_max(2, 6, r_m, r_prev)
    assert res.schedule == optimal_rates(6, 2)


def test_feasible_max_degenerate_objective():
    res = feasible_max(5, 4, 0.0, 0.0)
    assert res.tie
    assert res.schedule == optimal_rates(4, 5)
    assert res.objective == 0.0


def test_feasible_max_level_one():
    res = feasible_max(7, 1, 0.3, 0.0)
    assert res.schedule == optimal_rates(1, 7)


def test_feasible_max_validation():
    with pytest.raises(ValueError):
        feasible_max(4, 0, 0.1, 0.0)
    with pytest.raises(ValueError):
        feasible_max(4, 2, float("nan"), 0.0)


def test_feasible_max_never_uses_up_moves():
    for m in (1, 2, 6):
        res = feasible_max(6, m, *r_values(6, max(m, 1), 1.5))
        assert res.schedule.up1 == 0 and res.schedule.up2 == 0


def test_bellman_gap_zero_for_optimal():
    for d, m, t in [(2, 4, 0.5), (4, 6, 1.0), (10, 3, 2.0)]:
        assert bellman_gap(d, m, t, optimal_rates(m, d)) == 0.0


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
    undetermined = rep.sign_table.undetermined_cells()
    assert sorted(kind for kind, _, _ in undetermined) == ["diff"] + ["r"] * 5
    # cell (m, t) reads r(m, t) and the sign of r(m-1, t) - r(m, t)
    decided = {(m, t) for _, m, t in undetermined}
    assert len(decided) == 5
    assert {m for m, _ in decided} == {59, 60}
    assert all(t <= 0.03 for _, t in decided)
    status = {(c.m, c.t): c.status for c in rep.cells}
    assert all(status[cell] == "tie" for cell in decided)
    assert sorted(cell for cell, s in status.items() if s == "tie" and cell[0] != 3) == \
        sorted(decided)
