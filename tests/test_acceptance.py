"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one status line per
criterion.  Two narrowly-scoped sub-cases are provably unattainable and are
marked as strict expected failures rather than weakened:

* strict positivity of the first tail difference at (d=2, level 2): the
  level-1 and level-2 tails coincide exactly at d=2 (both are e^{-2t}; the
  exact transform of their difference is the zero function), so the
  difference is identically zero, not positive;
* the mean-coupling-time ratio lower bound at d=2: the exact mean from a
  uniform start is (1/2) H(N/2)-shaped and sits strictly below log(n)/2 at
  every finite n, approaching it only in the limit.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import cowalk
from cowalk import (
    RateSchedule,
    SignCert,
    Strategy,
    bellman_gap,
    cutoff_profile,
    dinfty_convergence,
    dominance_test,
    estimate_survival,
    expected_tau,
    laplace_R,
    laplace_V,
    limit_tail,
    mean_tau_stationary,
    mk_bound_mean,
    r_diff_table,
    survival_exact,
    survival_from_stationary,
    survival_table,
    tv_exact,
    validate_marginals,
    verify_argmax_grid,
)
from cowalk.optimality import sample_feasible_schedules
from cowalk.ratfun import Poly, RationalFn
from cowalk.states import WalkParams
from cowalk.strategies import _singles_mode
from cowalk.tvcutoff import cutoff_time
from references import level_schedule

EPS = 1e-12


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    return ok


# -- criterion 1: closed-form tails ------------------------------------------

def test_criterion_1_closed_form_tails():
    t = np.linspace(0.0, 10.0, 50)
    worst1 = worst2 = 0.0
    for d in (2, 3, 4, 10):
        # oracle first: the level-2 formula against adaptive quadrature of
        # the renewal convolution
        for t0 in (0.4, 1.3, 3.0):
            conv, err = quad(lambda u: 2 * math.exp(-2 * u) * ((d - 2) / (d - 1))
                             * math.exp(-d * (t0 - u) / (d - 1)),
                             0.0, t0, epsabs=1e-13)
            formula = 2 * math.exp(-d * t0 / (d - 1)) - math.exp(-2 * t0)
            assert abs(formula - (math.exp(-2 * t0) + conv)) <= 1e-10 + 10 * err
        worst1 = max(worst1, np.abs(survival_exact(d, 1, t, EPS)
                                    - np.exp(-d * t / (d - 1))).max())
        worst2 = max(worst2, np.abs(survival_exact(d, 2, t, EPS)
                                    - (2 * np.exp(-d * t / (d - 1)) - np.exp(-2 * t))).max())
    ok = worst1 <= 1e-10 and worst2 <= 1e-8
    assert _report("1 closed-form tails", ok, f"max errors {worst1:.2e}, {worst2:.2e}")


# -- criterion 2: exact Laplace identities ------------------------------------

def test_criterion_2_laplace_identities():
    a = Poly([0, 1])
    ok = True
    for d in range(2, 13):
        ok &= laplace_V(d, 1) == RationalFn(Poly([d - 1]), Poly([d, d - 1]))
        ok &= laplace_R(d, 2) == RationalFn(Poly([d - 2]), Poly([2, 1]) * Poly([d, d - 1]))
        ok &= laplace_R(d, 1) - laplace_R(d, 2) == RationalFn(Poly([1]), Poly([2, 1]))
        if d >= 4:  # difference formula needs paired mode at level 3
            ok &= (laplace_R(d, 2) - laplace_R(d, 3)
                   == RationalFn(Poly([d - 4]), Poly([2, 1]) * Poly([3, 1]) * Poly([d - 1])))
        for m in range(1, 15):
            vm = laplace_V(d, m)
            if not _singles_mode(m, d):
                lhs = RationalFn((a + m) * (d - 1)) * vm
                rhs = (RationalFn(Poly([d - 1])) + m * laplace_V(d, m - 2)
                       + m * (d - 2) * laplace_V(d, m - 1))
            else:  # singles-mode variant: rate m d/(d-1), single -1 jumps
                lhs = RationalFn(a * (d - 1) + m * d) * vm
                rhs = RationalFn(Poly([d - 1])) + m * d * laplace_V(d, m - 1)
            ok &= lhs == rhs
        # three-term difference recursion on its derivable levels
        for m in range(2, 14):
            if not _singles_mode(m, d) and not _singles_mode(m + 1, d):
                lhs = RationalFn((a + (m + 1)) * (d - 1)) * laplace_R(d, m + 1)
                rhs = m * laplace_R(d, m - 1) + (m * (d - 2) - 1) * laplace_R(d, m)
                ok &= lhs == rhs
    # symbolic d by exact interpolation: the cleared identities are
    # polynomial in d, so holding at more integer d than the degree bound
    # proves them for symbolic d
    for m in (2, 3, 5):
        for d in range(4, 4 + 2 * (m + 2) + 2):
            lhs = RationalFn((a + (m + 1)) * (d - 1)) * laplace_R(d, m + 1)
            rhs = m * laplace_R(d, m - 1) + (m * (d - 2) - 1) * laplace_R(d, m)
            ok &= lhs == rhs
    assert _report("2 exact Laplace identities", bool(ok))


# -- criterion 3: expected coupling times -------------------------------------

def test_criterion_3_expected_tau():
    ok = True
    for d in range(2, 13):
        ok &= expected_tau(d, 1) == Fraction(d - 1, d)
        ok &= expected_tau(d, 2) == Fraction(3 * d - 4, 2 * d)
        # independent oracle: transform-at-zero recursion evaluated directly
        e1 = Fraction(d - 1, d)
        e2 = Fraction(1, 2) + (Fraction(0) + (d - 2) * e1) / (d - 1)
        ok &= expected_tau(d, 2) == e2
    for d in (4, 10):
        for m in range(1, 21):
            val = expected_tau(d, 2 * m)
            ok &= mk_bound_mean(2, m) <= val <= mk_bound_mean(1, 2 * m)
    assert _report("3 expected coupling times + sandwich", bool(ok))


# -- criterion 4: Monte Carlo consistency -------------------------------------

def test_criterion_4_monte_carlo_consistency():
    grid = np.array([0.5, 1.0, 2.0, 4.0])
    reps = 100_000
    z = []
    for d in (2, 3, 4, 10):
        exact = survival_table(d, 10, grid, EPS).values
        for m0 in range(1, 11):
            curve = estimate_survival(Strategy.OPTIMAL, d, m0, grid, reps,
                                      seed=1000 * d + m0)
            p = exact[m0]
            sigma = np.sqrt(p * (1 - p) / reps)
            z.extend(np.abs(curve.value - p) / np.maximum(sigma, 1e-300))
    z = np.array(z)
    frac3 = (z <= 3.0).mean()
    ok = frac3 >= 0.95 and (z <= 4.0).all()
    assert _report("4 Monte Carlo consistency", bool(ok),
                   f"{(z <= 3).sum()}/{z.size} within 3 sigma, max z = {z.max():.2f}")


# -- criterion 5: stochastic minimality ----------------------------------------

def test_criterion_5_dominance_and_argmax():
    grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    violations = 0
    for comp in (Strategy.INDEPENDENT, Strategy.SYNCHRONOUS, Strategy.PAIRWISE_CLASSIC):
        for d in (2, 4, 10):
            for m0 in range(2, 9):
                rep = dominance_test(d, m0, comp, grid, replicates=100_000,
                                     seed=17 * d + m0, eps=EPS)
                violations += len(rep.violations)
    argmax_ok = True
    tgrid = np.geomspace(0.01, 10.0, 20)
    for d in (4, 6, 10):
        rep = verify_argmax_grid(d, 30, tgrid, EPS)
        argmax_ok &= all(cell.equals_optimal for cell in rep.cells)
        argmax_ok &= rep.n_violations == 0
    worst_gap = -np.inf
    self_gaps_zero = True
    for d in (2, 4, 10):
        for m in (2, 5, 8):
            tails = survival_table(d, m + 2, [0.5, 1.0, 2.0], EPS).values
            for j, t in enumerate((0.5, 1.0, 2.0)):
                self_gaps_zero &= bellman_gap(d, m, t, level_schedule(Strategy.OPTIMAL, m, d),
                                              tails=tails[:, j]) == 0.0
                for sched in sample_feasible_schedules(d, m, 100, seed=97 * d + m + j):
                    worst_gap = max(worst_gap, bellman_gap(d, m, t, sched,
                                                           tails=tails[:, j]))
    ok = violations == 0 and argmax_ok and self_gaps_zero and worst_gap <= 4 * EPS * 30
    assert _report("5 stochastic minimality", bool(ok),
                   f"dominance violations {violations}, max sampled gap {worst_gap:.1e}")


# -- criterion 6: monotonicity suites -----------------------------------------

GRID6 = np.geomspace(0.01, 10.0, 20)


def test_criterion_6_tail_increasing_in_m():
    # strict positivity of r(m, t) certified on the full grid; the single
    # degenerate cell (d=2, m=2) is exactly zero and is tested separately
    ok = True
    detail = []
    for d in range(2, 11):
        tab = r_diff_table(d, 30, GRID6, EPS)
        undetermined = len(tab.undetermined_cells())
        certs = tab.r_certs
        if d == 2:
            degenerate = (certs[1] == SignCert.ZERO.value).all()
            ok &= bool(degenerate) and laplace_R(2, 2).is_zero
            rest = np.delete(np.arange(30), 1)
            ok &= (certs[rest] == SignCert.POSITIVE.value).all()
        else:
            ok &= (certs == SignCert.POSITIVE.value).all()
        ok &= undetermined == 0
        detail.append(f"d={d}:{undetermined}undet")
    assert _report("6a tail strictly increasing in m (degenerate d=2 cell exact zero)",
                   bool(ok), " ".join(detail))


@pytest.mark.xfail(strict=True, reason=(
    "provably unattainable as literally stated: at d=2 the level-1 and "
    "level-2 tails are both exp(-2t) (exit rate 2 at both levels), so "
    "r(2, t) is identically zero -- its exact rational transform vanishes -- "
    "and cannot be strictly positive"))
def test_criterion_6_literal_strict_positivity_at_d2_level2():
    tab = r_diff_table(2, 2, GRID6, EPS)
    _report("6 literal strict positivity incl. (d=2, m=2)", False,
            "r(2,.) = 0 exactly at d=2")
    assert (tab.r_certs[1] == SignCert.POSITIVE.value).all()


def test_criterion_6_difference_monotone_for_d_ge_4():
    ok = True
    for d in (4, 6, 10):
        tab = r_diff_table(d, 30, GRID6, EPS)
        ok &= len(tab.undetermined_cells()) == 0
        ok &= bool(np.isin(tab.diff_certs,
                           [SignCert.POSITIVE.value, SignCert.ZERO.value]).all())
        if d == 4:  # r(2) - r(3) vanishes identically at d = 4
            ok &= (tab.diff_certs[1] == SignCert.ZERO.value).all()
    assert _report("6b second difference nonnegative for d in {4,6,10}", bool(ok),
                   "zero undetermined cells at eps = 1e-12")


# -- criterion 7: coupling inequality and non-maximality -----------------------

def test_criterion_7_coupling_inequality_strict_gap():
    grid = np.linspace(0.0, 8.0, 81)
    ok = True
    details = []
    for d in (2, 3, 4, 10):
        for n in (10, 1000):
            surv = survival_from_stationary(d, n, grid, EPS).value
            tv = np.array([tv_exact(d, n, t) for t in grid])
            ok &= (tv <= surv + EPS).all()
            gap = surv - tv
            ok &= gap.max() > 10 * EPS
            details.append(f"d={d}, n={n}: max gap {gap.max():.3f}")
    assert _report("7 coupling inequality + strict non-maximality gap", bool(ok),
                   "; ".join(details))


# -- criterion 8: cutoff profile ------------------------------------------------

def test_criterion_8_cutoff_gap_shrinks():
    ok = True
    for d in (2, 5, 10):
        for theta in (-1.0, 0.0, 1.0):
            gaps = []
            for n in (10**3, 10**4, 10**5):
                p = cutoff_profile(d, n, [theta])[0]
                gaps.append(abs(p.tv_exact - p.tv_asymptotic))
            ok &= gaps[0] >= gaps[1] >= gaps[2]
    assert _report("8 cutoff deviation monotone in n", bool(ok))


# -- criterion 9: maximality in the d -> infinity limit --------------------------

def test_criterion_9_dinfty_maximality():
    grid = np.linspace(0.0, 12.0, 121)
    gaps = dinfty_convergence(5, [10, 100, 1000], grid, EPS)
    ok = gaps[0].sup_gap > gaps[1].sup_gap > gaps[2].sup_gap
    grid1 = np.linspace(0.0, 6.0, 61)
    for d in (10, 100, 1000):
        surv = survival_from_stationary(d, 1, grid1, EPS).value
        closed = np.abs((1 - 1 / d) * np.exp(-d * grid1 / (d - 1)) - np.exp(-grid1))
        computed = np.abs(surv - limit_tail(1, grid1))
        ok &= bool(np.abs(computed - closed).max() <= 1e-12)
    assert _report("9 d->infinity maximality", bool(ok),
                   f"sup gaps {[round(g.sup_gap, 5) for g in gaps]}")


# -- criterion 10: mean coupling-time bounds -------------------------------------

def test_criterion_10_mean_tau_ratio_bounds():
    ok = True
    details = []
    for d in (3, 10):
        for n in (10**2, 10**4, 10**6):
            ratio = float(mean_tau_stationary(d, n)) / math.log(n)
            ok &= 0.5 <= ratio <= 1.0
            details.append(f"d={d},n=1e{round(math.log10(n))}:{ratio:.3f}")
    assert _report("10 mean-tau ratio in [1/2, 1] for d in {3, 10}", bool(ok),
                   " ".join(details))


@pytest.mark.xfail(strict=True, reason=(
    "provably unattainable as literally stated: at d=2 the exact mean from a "
    "uniform start is below log(n)/2 at every finite n (even levels 2k "
    "couple in mean H(k)/2, so the mixture mean is ~ log(n)/2 - 0.40); the "
    "interval containment holds only as the n -> infinity limit of the ratio"))
def test_criterion_10_literal_d2_containment():
    ratios = [float(mean_tau_stationary(2, n)) / math.log(n)
              for n in (10**2, 10**4, 10**6)]
    _report("10 literal d=2 containment", False,
            f"ratios {[round(r, 4) for r in ratios]} < 0.5")
    assert all(0.5 <= r <= 1.0 for r in ratios)


# -- criterion 11: marginal-law validation ---------------------------------------

def test_criterion_11_marginal_laws():
    ok = True
    details = []
    for d in (2, 4):
        for strategy in (Strategy.OPTIMAL, Strategy.INDEPENDENT, Strategy.SYNCHRONOUS):
            rep = validate_marginals(strategy, WalkParams(d=d, n=5),
                                     horizon=10.0, replicates=10_000,
                                     seed=29 * d + len(strategy.value))
            ok &= rep.passed
            worst = min(t.p_bonferroni for t in rep.tests)
            details.append(f"{strategy.value[:4]}/d={d}:p>={worst:.3f}")
    assert _report("11 marginal-law validation", bool(ok), " ".join(details))
