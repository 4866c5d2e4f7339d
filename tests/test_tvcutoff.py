import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import ndtr

from cowalk.exact import expected_tau
from cowalk.tvcutoff import (
    coordinate_law,
    cutoff_profile,
    cutoff_time,
    dinfty_convergence,
    limit_tail,
    mean_tau_stationary,
    survival_from_stationary,
    tv_exact,
)


# --- single-coordinate law --------------------------------------------------

def test_coordinate_law_boundaries():
    law = coordinate_law(4, 0.0)
    assert law.a == 1.0 and law.b == 0.0
    law = coordinate_law(4, 1e9)
    assert law.a == pytest.approx(0.25, abs=1e-12)
    assert law.b == pytest.approx(0.25, abs=1e-12)


def test_coordinate_law_invariant():
    for d in (2, 3, 7):
        for t in (0.0, 0.2, 1.5, 4.0):
            law = coordinate_law(d, t)
            assert law.a + (d - 1) * law.b == pytest.approx(1.0, abs=1e-14)
            assert law.b <= 1.0 / d <= law.a


def test_coordinate_law_matrix_exponential_oracle():
    # generator of the rate-1 walk on K_3: off-diagonal 1/2, diagonal -1
    d, t = 3, 1.0
    gen = np.full((d, d), 1.0 / (d - 1)) - np.eye(d) * (1 + 1.0 / (d - 1))
    p = expm(gen * t)
    law = coordinate_law(d, t)
    assert abs(p[0, 0] - law.a) <= 1e-12
    assert abs(p[0, 1] - law.b) <= 1e-12


# --- exact total variation --------------------------------------------------

def test_tv_at_time_zero():
    for d, n in [(2, 5), (3, 1), (7, 4)]:
        assert tv_exact(d, n, 0.0) == pytest.approx(1.0 - d ** (-n), abs=1e-14)


def test_tv_single_coordinate_closed_form():
    # n = 1: direct enumeration over the d states
    for d in (2, 3, 9):
        for t in (0.1, 0.7, 2.0):
            law = coordinate_law(d, t)
            oracle = 0.5 * (abs(law.a - 1 / d) + (d - 1) * abs(law.b - 1 / d))
            assert tv_exact(d, 1, t) == pytest.approx(oracle, abs=1e-14)
            closed = (1 - 1 / d) * math.exp(-d * t / (d - 1))
            assert tv_exact(d, 1, t) == pytest.approx(closed, abs=1e-14)


def test_tv_brute_force_hypercube():
    # full 2^20-state enumeration, no lumping
    d, n = 2, 20
    t = cutoff_time(d, n)
    bits = np.unpackbits(np.arange(2 ** n, dtype=np.uint32).view(np.uint8).reshape(-1, 4),
                         axis=1, bitorder="little")
    pop = bits.sum(axis=1)  # number of coordinates differing from start
    law = coordinate_law(d, t)
    probs = law.a ** (n - pop) * law.b ** pop
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    oracle = np.maximum(probs - 2.0 ** (-n), 0.0).sum()
    assert abs(tv_exact(d, n, t) - oracle) <= 1e-10


def test_tv_monotone_in_t():
    for d, n in [(2, 10), (5, 100)]:
        grid = np.linspace(0.0, 6.0, 25)
        vals = [tv_exact(d, n, t) for t in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_tv_large_n_runs_fast():
    assert 0.0 <= tv_exact(10, 10**6, cutoff_time(10, 10**6)) <= 1.0


@pytest.mark.parametrize("n", [10, 50])
def test_tv_matches_high_precision_sum(n):
    # the lumped sum over K, in 40-digit arithmetic, from the same float a
    mpmath = pytest.importorskip("mpmath")
    for d in (2, 3, 5, 10):
        for t in (0.05, 0.3, 1.0, cutoff_time(d, n), 2.5, 6.0):
            with mpmath.workdps(40):
                a = mpmath.mpf(coordinate_law(d, t).a)
                b = (1 - a) / (d - 1)
                unif = mpmath.mpf(d) ** (-n)
                ref = mpmath.fsum(mpmath.binomial(n, k) * (d - 1) ** (n - k)
                                  * max(a**k * b ** (n - k) - unif, 0)
                                  for k in range(n + 1))
            assert abs(tv_exact(d, n, t) - float(ref)) <= 2e-15, (d, n, t)


def test_tv_invariant_under_start_relabeling():
    # complete-graph symmetry: the distance from stationarity is the same
    # from every start state; brute-force product law from arbitrary starts
    import itertools

    d, n, t = 3, 3, 0.8
    law = coordinate_law(d, t)
    for start in [(0, 0, 0), (1, 2, 0), (2, 2, 2)]:
        total = 0.0
        for state in itertools.product(range(d), repeat=n):
            p = 1.0
            for s, v in zip(start, state):
                p *= law.a if s == v else law.b
            total += max(0.0, p - d ** (-n))
        assert total == pytest.approx(tv_exact(d, n, t), abs=1e-13)


# --- cutoff profile ---------------------------------------------------------

def test_cutoff_time_formula():
    assert cutoff_time(2, 100) == pytest.approx(0.25 * math.log(100))
    assert cutoff_time(10, 1000) == pytest.approx(0.45 * math.log(1000))


def test_cutoff_profile_values():
    pts = cutoff_profile(2, 10_000, [0.0])
    assert pts[0].tv_asymptotic == pytest.approx(2 * ndtr(0.5) - 1, abs=1e-12)
    assert pts[0].tv_asymptotic == pytest.approx(0.3829249225480262, abs=1e-10)
    far = cutoff_profile(3, 1000, [40.0])[0]
    assert far.tv_asymptotic == pytest.approx(0.0, abs=1e-8)


def test_cutoff_profile_clamps_negative_times():
    pts = cutoff_profile(2, 4, [-10.0])
    assert pts[0].clamped and pts[0].t == 0.0


def test_cutoff_gap_shrinks_with_n():
    for d in (2, 5, 10):
        for theta in (-1.0, 0.0, 1.0):
            gaps = []
            for n in (10**3, 10**4, 10**5):
                p = cutoff_profile(d, n, [theta])[0]
                gaps.append(abs(p.tv_exact - p.tv_asymptotic))
            assert gaps[0] >= gaps[1] >= gaps[2], (d, theta, gaps)


# --- coupling tail from the stationary start --------------------------------

def test_survival_from_stationary_boundaries():
    curve = survival_from_stationary(3, 6, [0.0, 1.0])
    assert curve.value[0] == pytest.approx(1.0 - 3.0 ** (-6), abs=1e-12)
    assert curve.kind == "exact"


def test_survival_from_stationary_n1_closed_form():
    grid = np.linspace(0.0, 5.0, 21)
    for d in (2, 5, 50):
        curve = survival_from_stationary(d, 1, grid)
        closed = (1 - 1 / d) * np.exp(-d * grid / (d - 1))
        assert np.abs(curve.value - closed).max() <= 1e-12
        tv = np.array([tv_exact(d, 1, t) for t in grid])
        assert np.abs(curve.value - tv).max() <= 1e-12  # tight at n = 1


def test_survival_from_stationary_large_n_against_expm_multiply():
    # lambda * t reaches 4800 here; the Poisson truncation must still
    # certify its bound (it once grew k_max until memory ran out)
    from scipy.sparse import diags
    from scipy.sparse.linalg import expm_multiply

    from cowalk.exact import build_generator

    d, n = 5, 400
    grid = np.linspace(0.0, 12.0, 13)
    curve = survival_from_stationary(d, n, grid)
    gen = build_generator(d, n)
    # generator of the death chain acting on row distributions, transposed
    q_t = diags([-gen.exit_rate, gen.down1[1:], gen.down2[2:]], [0, 1, 2]).tocsc()
    m = np.arange(n + 1)
    start = np.exp([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(1 - 1 / d) + (n - k) * math.log(1 / d) for k in m])
    laws = expm_multiply(q_t, start, start=0.0, stop=12.0, num=13, endpoint=True)
    ref = 1.0 - laws[:, 0]
    assert np.abs(curve.value - ref).max() <= 1e-10


def test_coupling_inequality_on_grid():
    grid = np.linspace(0.0, 6.0, 31)
    for d in (2, 3, 10):
        curve = survival_from_stationary(d, 8, grid, eps=1e-12)
        tv = np.array([tv_exact(d, 8, t) for t in grid])
        assert (tv <= curve.value + 1e-11).all()


# --- the d -> infinity limit -------------------------------------------------

def test_limit_tail_values():
    assert limit_tail(1, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert limit_tail(7, 0.0) == 1.0
    assert limit_tail(5, math.log(5)) == pytest.approx(1 - (1 - 0.2) ** 5, abs=1e-12)


def test_dinfty_gaps_decrease():
    grid = np.linspace(0.0, 10.0, 60)
    gaps = dinfty_convergence(5, [10, 100, 1000], grid)
    assert gaps[0].sup_gap > gaps[1].sup_gap > gaps[2].sup_gap


def test_dinfty_gap_closed_form_n1():
    grid = np.linspace(0.0, 5.0, 40)
    for d in (10, 100):
        gaps = dinfty_convergence(1, [d], grid)
        closed = np.abs((1 - 1 / d) * np.exp(-d * grid / (d - 1)) - np.exp(-grid))
        assert gaps[0].sup_gap == pytest.approx(closed.max(), abs=1e-12)


def test_dinfty_gap_at_time_zero():
    # pointwise gap at t = 0 is exactly d^-n
    for d, n in [(10, 5), (100, 3)]:
        curve = survival_from_stationary(d, n, [0.0])
        assert abs(curve.value[0] - limit_tail(n, 0.0)) == pytest.approx(d ** (-n), abs=1e-12)


def test_dinfty_requires_increasing_d():
    with pytest.raises(ValueError):
        dinfty_convergence(3, [10, 10], [1.0])


# --- expected coupling time from the stationary start ------------------------

def test_mean_tau_stationary_n1():
    for d in (2, 3, 12):
        expect = Fraction(d - 1, d) * Fraction(d - 1, d)
        assert mean_tau_stationary(d, 1) == expect


def test_mean_tau_stationary_exact_vs_float():
    for d in (2, 5):
        exact_val = float(mean_tau_stationary(d, 60, exact=True))
        float_val = mean_tau_stationary(d, 60, exact=False)
        assert exact_val == pytest.approx(float_val, rel=1e-11)


def test_mean_tau_stationary_monotone_in_n():
    for d in (2, 4):
        vals = [float(mean_tau_stationary(d, n)) for n in (1, 2, 4, 8, 16, 32)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_mean_tau_stationary_weights_sum():
    # mixture agrees with direct summation at small n
    d, n = 3, 5
    from scipy.stats import binom

    direct = sum(binom.pmf(m, n, 1 - 1 / d) * float(expected_tau(d, m))
                 for m in range(n + 1))
    assert float(mean_tau_stationary(d, n)) == pytest.approx(direct, rel=1e-12)
