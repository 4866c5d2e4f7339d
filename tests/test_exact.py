import hashlib
import operator
import time
from fractions import Fraction
from math import comb, gcd, isqrt

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from cowalk import exact
from cowalk.exact import (
    SignCert,
    _check_monotone,
    _no_root_in_unit_interval,
    _row_sign,
    _spectral_levels,
    expected_tau,
    expected_tau_float,
    laplace_R,
    laplace_V,
    mk_bound_mean,
    r_diff_table,
    survival_exact,
    survival_table,
)
from cowalk.ratfun import Poly, RationalFn
from cowalk.strategies import DeathChain, Strategy, _singles_mode, death_chain
from cowalk.tvcutoff import mean_tau_stationary


# --- closed-form tails ------------------------------------------------------

T50 = np.linspace(0.0, 10.0, 50)


def v1_closed(d, t):
    return np.exp(-d * t / (d - 1))


def v2_closed(d, t):
    return 2 * np.exp(-d * t / (d - 1)) - np.exp(-2.0 * t)


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_level1_closed_form(d):
    got = survival_exact(d, 1, T50, eps=1e-12)
    assert np.abs(got - v1_closed(d, T50)).max() <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_level2_formula_against_quadrature_oracle(d):
    # independent oracle: v(2,t) = e^{-2t} + int_0^t 2 e^{-2u} *
    #   [ (1/(d-1)) * 0 + ((d-2)/(d-1)) v(1, t-u) ] du, by adaptive quadrature
    for t in (0.3, 1.0, 2.5, 7.0):
        integrand = lambda u: 2 * np.exp(-2 * u) * ((d - 2) / (d - 1)) * v1_closed(d, t - u)
        integral, err = quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-13)
        oracle = np.exp(-2 * t) + integral
        assert abs(v2_closed(d, t) - oracle) <= 1e-10 + 10 * err


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_level2_closed_form(d):
    got = survival_exact(d, 2, T50, eps=1e-12)
    assert np.abs(got - v2_closed(d, T50)).max() <= 1e-8


def test_tail_boundary_values():
    table = survival_table(5, 6, [0.0, 1.0, 3.0], eps=1e-12)
    assert (table.values[0] == 0.0).all()          # already coupled
    assert (table.values[1:, 0] == 1.0).all()      # t = 0
    assert (table.values >= 0).all() and (table.values <= 1).all()


@pytest.mark.parametrize("d", [2, 3, 10])
def test_level_0_is_an_ordinary_level(d):
    table = survival_table(d, 0, T50)
    assert table.values.shape == (1, len(T50)) and (table.values == 0.0).all()
    assert table.uniformization_rate == 1
    assert (survival_exact(d, 0, T50) == 0.0).all()


def test_uniformization_error_scaling():
    t = np.linspace(0.01, 8.0, 30)
    coarse = survival_table(4, 12, t, eps=1e-6).values
    fine = survival_table(4, 12, t, eps=1e-7).values
    assert np.abs(coarse - fine).max() <= 1e-6


def test_tail_monotone_in_t_and_m():
    t = np.linspace(0.0, 6.0, 40)
    table = survival_table(6, 10, t, eps=1e-12)
    v = table.values
    assert (np.diff(v, axis=1) <= 1e-12).all()          # nonincreasing in t
    assert (np.diff(v[:, 1:], axis=0) >= -1e-12).all()  # nondecreasing in m


def test_truncation_order_certified_at_large_lambda_t():
    # 1 - sum(weights) is rounding noise at lambda*t = 12000; the order must
    # come from a bound on the tail itself, and quickly
    from scipy.special import pdtrc

    from cowalk.exact import _poisson_tail_upper, _truncation_order

    start = time.perf_counter()
    k = _truncation_order(12000.0, 1e-12)
    assert time.perf_counter() - start < 1.0
    assert _poisson_tail_upper(12000.0, k) <= 0.5e-12
    assert pdtrc(k, 12000.0) <= 0.5e-12
    assert k < 15000


def test_tail_series_beyond_2_to_the_20_terms_is_refused():
    # Lam t = 795,861 is the last product whose series fits in 2^20 terms;
    # past it the table is refused before any allocation
    from cowalk.exact import _truncation_order

    assert _truncation_order(795_860.0, 1e-12) <= 2**20 < _truncation_order(795_862.0, 1e-12)
    for t in (1e7, 1e9):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="over 2\\^20"):
            survival_table(2, 1, [0.0, t])
        assert time.perf_counter() - start < 0.1


def test_invalid_args():
    with pytest.raises(ValueError):
        survival_table(4, 5, [0.5], eps=0.0)
    with pytest.raises(ValueError):
        survival_table(4, 5, [-1.0])
    with pytest.raises(ValueError, match="t_grid must be nonempty"):
        survival_table(3, 2, [])
    # one refusal of a negative level, the death chain's
    for f, args in ((survival_exact, (4, -1, [0.5])), (laplace_V, (4, -1))):
        with pytest.raises(ValueError, match="m must be >= 0, got -1"):
            f(*args)


# --- Laplace transforms -----------------------------------------------------

def alpha_poly():
    return Poly([0, 1])


@pytest.mark.parametrize("d", range(2, 13))
def test_V1_closed_form(d):
    assert laplace_V(d, 1) == RationalFn(Poly([d - 1]), Poly([d, d - 1]))


def test_V0_zero():
    assert laplace_V(7, 0).is_zero


@pytest.mark.parametrize("d", range(2, 13))
def test_R_small_level_identities(d):
    R1, R2 = laplace_R(d, 1), laplace_R(d, 2)
    assert R1 == laplace_V(d, 1)
    assert R2 == RationalFn(Poly([d - 2]), Poly([2, 1]) * Poly([d, d - 1]))
    assert R1 - R2 == RationalFn(Poly([1]), Poly([2, 1]))


@pytest.mark.parametrize("d", range(4, 13))
def test_R2_minus_R3(d):
    lhs = laplace_R(d, 2) - laplace_R(d, 3)
    assert lhs == RationalFn(Poly([d - 4]), Poly([2, 1]) * Poly([3, 1]) * Poly([d - 1]))


def test_R2_minus_R3_vanishes_at_d4():
    assert (laplace_R(4, 2) - laplace_R(4, 3)).is_zero


def test_R2_vanishes_at_d2():
    assert laplace_R(2, 2).is_zero


def _generic_levels(d, m_max):
    """V(0..m_max) by generic RationalFn arithmetic on the level equations."""
    a = alpha_poly()
    levels = [RationalFn(0)]
    for m in range(1, m_max + 1):
        if _singles_mode(m, d):
            v = (RationalFn(d - 1) + m * d * levels[m - 1]) / RationalFn(a * (d - 1) + m * d)
        else:
            prev2 = levels[m - 2] if m >= 2 else RationalFn(0)
            v = ((RationalFn(d - 1) + m * prev2 + m * (d - 2) * levels[m - 1])
                 / RationalFn((a + m) * (d - 1)))
        levels.append(v)
    return levels


@pytest.mark.parametrize("d", [2, 3, 4, 5, 10])
def test_transforms_equal_generic_arithmetic(d):
    levels = _generic_levels(d, 8)
    for m in range(9):
        assert laplace_V(d, m) == levels[m], (d, m)
        if m >= 1:
            assert laplace_R(d, m) == levels[m] - levels[m - 1], (d, m)


def _scalar_levels(d, m_max, alpha):
    """V(0..m_max) at one rational alpha by a Fraction recursion."""
    values = [Fraction(0)]
    for m in range(1, m_max + 1):
        if _singles_mode(m, d):
            values.append((d - 1 + m * d * values[m - 1]) / (m * d + alpha * (d - 1)))
        else:
            prev2 = values[m - 2] if m >= 2 else Fraction(0)
            values.append((d - 1 + m * prev2 + m * (d - 2) * values[m - 1])
                          / ((m + alpha) * (d - 1)))
    return values


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_deep_transforms_match_scalar_recursion(d):
    v30, r30 = laplace_V(d, 30), laplace_R(d, 30)
    for alpha in (Fraction(0), Fraction(1, 3), Fraction(2), Fraction(7, 5), Fraction(-1, 7)):
        values = _scalar_levels(d, 30, alpha)
        assert v30(alpha) == values[30], (d, alpha)
        assert r30(alpha) == values[30] - values[29], (d, alpha)


def _divide_linear(p, a, b):
    """p / (a + b*alpha) by synthetic division, or None if the primitive
    factor (gcd(a, b) = 1, b > 0) does not divide p.  By Gauss's lemma an
    exact quotient has int coefficients, so an inexact step proves that the
    factor's root is not a root of p."""
    quo, carry = [0] * (len(p.coeffs) - 1), p.coeffs[-1]
    for i in range(len(p.coeffs) - 2, -1, -1):
        quo[i], rest = divmod(carry, b)
        if rest:
            return None
        carry = p.coeffs[i] - a * quo[i]
    return None if carry else Poly(quo)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 10])
def test_transforms_canonical(d):
    # coprime, jointly content-free integer coefficients, positive leading
    # denominator coefficient.  The denominator is a product of factors
    # s_j + q*a, s_j = c1 + c2 the death chain's rate numerators at levels
    # j <= m, and the numerator is nonzero at each root -s_j/q of it
    chain = death_chain(Strategy.OPTIMAL, d, 30)
    c1, c2 = chain.c1.tolist(), chain.c2.tolist()
    q = d - 1
    for m in range(1, 31):
        rates = {c1[j] + c2[j] for j in range(1, m + 1)}
        for f in (laplace_V(d, m), laplace_R(d, m)):
            if f.is_zero:
                assert f.den == Poly([1])
                continue
            coeffs = f.num.coeffs + f.den.coeffs
            assert all(type(c) is int for c in coeffs)
            content = 0
            for c in coeffs:
                content = gcd(content, c)
            assert content == 1, (d, m)
            assert f.den.coeffs[-1] > 0
            rest = f.den
            for s in rates:
                a, b = s // gcd(s, q), q // gcd(s, q)
                while rest.degree > 0 and (quo := _divide_linear(rest, a, b)):
                    rest = quo
                if f.den(Fraction(-s, q)) == 0:
                    assert f.num(Fraction(-s, q)) != 0, (d, m, s)
            assert rest.degree == 0, (d, m)


def test_divide_linear_helper():
    p = Poly([2, 3]) * Poly([1, 2])         # (2 + 3a)(1 + 2a)
    assert _divide_linear(p, 2, 3) == Poly([1, 2])
    assert _divide_linear(p, 1, 1) is None  # p(-1) = 1
    assert _divide_linear(p, 1, 4) is None  # 4 does not divide the leading 6
    assert _divide_linear(Poly([1, 2, 1]) * 4, 1, 1) == Poly([4, 4])


def test_zero_transform_rows():
    # R(m) = V(m) - V(m-1) vanishes only at (d=2, m=2), and R(m-1) - R(m)
    # only at (d=4, m=3), by generic RationalFn subtraction of the transforms;
    # the sign table's ZERO rows, which ``_combine`` reads off the spectral
    # table, are the same
    r_zero, diff_zero = [], []
    for d in range(2, 13):
        V = [laplace_V(d, m) for m in range(31)]
        R = [None] + [V[m] - V[m - 1] for m in range(1, 31)]
        r_zero += [(d, m) for m in range(1, 31) if R[m].is_zero]
        diff_zero += [(d, m) for m in range(2, 31) if (R[m - 1] - R[m]).is_zero]
        for m in range(1, 31):
            assert laplace_R(d, m).is_zero == R[m].is_zero, (d, m)
        tab = r_diff_table(d, 30, [1.0])
        assert [(d, m) for m in range(1, 31) if tab.r_certs[m - 1, 0] == SignCert.ZERO.value] \
            == [(dd, m) for dd, m in r_zero if dd == d]
        assert [(d, m) for m in range(2, 31) if tab.diff_certs[m - 2, 0] == SignCert.ZERO.value] \
            == [(dd, m) for dd, m in diff_zero if dd == d]
    assert r_zero == [(2, 2)]
    assert diff_zero == [(4, 3)]


def test_transforms_refuse_levels_above_the_bound():
    # the bound is checked before the spectral table is built; level
    # _MAX_TRANSFORM_LEVEL itself takes about 0.4 s at d = 2
    top = exact._MAX_TRANSFORM_LEVEL
    assert laplace_V(2, top)(1) > 0
    for f in (laplace_V, laplace_R):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"at most {top}; level {top + 1}"):
            f(50, top + 1)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("d", range(2, 13))
def test_level_recursions_exact(d):
    # paired-mode identity (m + a)(d-1) V(m) = (d-1) + m V(m-2) + m(d-2) V(m-1)
    # at paired levels; singles-mode identity (m d + a(d-1)) V(m) =
    # (d-1) + m d V(m-1) at singles levels
    a = alpha_poly()
    for m in range(1, 16):
        vm = laplace_V(d, m)
        if not _singles_mode(m, d):
            lhs = RationalFn((a + m) * (d - 1)) * vm
            rhs = (RationalFn(Poly([d - 1])) + m * laplace_V(d, m - 2)
                   + m * (d - 2) * laplace_V(d, m - 1))
        else:
            lhs = RationalFn(a * (d - 1) + m * d) * vm
            rhs = RationalFn(Poly([d - 1])) + m * d * laplace_V(d, m - 1)
        assert lhs == rhs, (d, m)


def _three_term_levels(d, m_top):
    """Levels m where the three-term difference identity is derivable:
    it needs the paired-mode recursion at both m and m+1."""
    return [m for m in range(2, m_top)
            if not _singles_mode(m, d) and not _singles_mode(m + 1, d)]


@pytest.mark.parametrize("d", range(3, 13))
def test_three_term_difference_identity(d):
    # (m+1+a)(d-1) R(m+1) = m R(m-1) + [m(d-2)-1] R(m)
    a = alpha_poly()
    levels = _three_term_levels(d, 14)
    assert levels, "no applicable levels"
    for m in levels:
        lhs = RationalFn((a + (m + 1)) * (d - 1)) * laplace_R(d, m + 1)
        rhs = m * laplace_R(d, m - 1) + (m * (d - 2) - 1) * laplace_R(d, m)
        assert lhs == rhs, (d, m)


def test_three_term_identity_symbolic_d():
    # same identity with d symbolic (paired mode at every level, i.e. d >= 4),
    # via an independent sympy evaluation of the recursion
    sympy = pytest.importorskip("sympy")
    d, a = sympy.symbols("d a", positive=True)
    V = [sympy.Integer(0), (d - 1) / (d + a * (d - 1))]
    for m in range(2, 7):
        V.append(sympy.cancel(((d - 1) + m * V[m - 2] + m * (d - 2) * V[m - 1])
                              / ((m + a) * (d - 1))))
    R = [None] + [sympy.cancel(V[m] - V[m - 1]) for m in range(1, 7)]
    for m in range(2, 6):
        expr = sympy.cancel((m + 1 + a) * (d - 1) * R[m + 1]
                            - m * R[m - 1] - (m * (d - 2) - 1) * R[m])
        assert expr == 0, m
    # and R(2) - R(3) = (d-4)/((2+a)(3+a)(d-1)) symbolically
    assert sympy.cancel(R[2] - R[3] - (d - 4) / ((2 + a) * (3 + a) * (d - 1))) == 0
    # cross-check sympy evaluation against the package's exact transforms
    for di in (5, 9):
        ours = laplace_V(di, 6)(Fraction(1, 3))
        theirs = sympy.cancel(V[6].subs({d: di, a: sympy.Rational(1, 3)}))
        assert Fraction(int(theirs.p), int(theirs.q)) == ours


def test_three_term_identity_polynomial_in_d_by_interpolation():
    # the identity, cleared of denominators, is a polynomial identity in d of
    # degree < 2(m+2) for fixed m; exact verification at more integer d than
    # that bound (all with paired mode at the levels involved) proves it for
    # symbolic d
    a = alpha_poly()
    for m in (2, 3, 4, 6):
        degree_bound = 2 * (m + 2)
        d_values = [d for d in range(4, 4 + degree_bound + 2)]
        for d in d_values:
            lhs = RationalFn((a + (m + 1)) * (d - 1)) * laplace_R(d, m + 1)
            rhs = m * laplace_R(d, m - 1) + (m * (d - 2) - 1) * laplace_R(d, m)
            assert lhs == rhs, (d, m)


def test_laplace_inversion_consistency():
    # numerically integrate e^{-a t} v(m, t) over [0, T] by Gauss-Legendre
    # and compare with the exact transform, within eps + tail slack
    d, m, T, eps = 5, 4, 40.0, 1e-12
    nodes, weights = np.polynomial.legendre.leggauss(300)
    t = 0.5 * T * (nodes + 1.0)
    w = 0.5 * T * weights
    v = survival_table(d, m, t, eps=eps).values[m]
    for alpha in (0.5, 1.0, 2.0):
        integral = float(np.sum(w * np.exp(-alpha * t) * v))
        exact_value = float(laplace_V(d, m)(Fraction(alpha)))
        assert abs(integral - exact_value) <= eps + np.exp(-alpha * T) + 1e-9


# --- expected coupling times ------------------------------------------------

def _expected_tau_oracle(d, m):
    """Independent evaluation of the mean recursion at transform point 0."""
    values = [Fraction(0)]
    for j in range(1, m + 1):
        if j % 2 == 1 and j * (d - 2) < 2 * (d - 1):
            values.append(Fraction(d - 1, j * d) + values[j - 1])
        else:
            values.append(Fraction(1, j)
                          + (values[j - 2] + (d - 2) * values[j - 1]) / (d - 1))
    return values[m]


@pytest.mark.parametrize("d", [2, 3, 4, 7, 10])
def test_expected_tau_small_levels(d):
    assert expected_tau(d, 0) == 0
    assert expected_tau(d, 1) == Fraction(d - 1, d)
    assert expected_tau(d, 2) == Fraction(3 * d - 4, 2 * d)
    assert expected_tau(d, 2) == _expected_tau_oracle(d, 2)
    for m in (5, 9, 16):
        assert expected_tau(d, m) == _expected_tau_oracle(d, m)


def _fraction_mean_levels(d, m_max):
    """E[tau | N_0 = m], m = 0..m_max, as Fractions reduced at every level:
    (c1 + c2) E_m = (d-1) + c1 E_{m-1} + c2 E_{m-2}.  A reference for the
    integer numerators of ``exact._mean_levels``."""
    chain = death_chain(Strategy.OPTIMAL, d, m_max)
    c1, c2 = chain.c1.tolist(), chain.c2.tolist()
    levels = [Fraction(0)]
    for m in range(1, m_max + 1):
        levels.append(((d - 1) + c1[m] * levels[m - 1] + c2[m] * levels[max(m - 2, 0)])
                      / (c1[m] + c2[m]))
    return levels


@pytest.mark.parametrize("d", [2, 5, 50])
def test_exact_means_equal_the_fraction_recursion(d):
    # every level up to the 2000 cap, and the stationary mixture as the
    # Fraction sum of binomial weights times those levels
    levels = _fraction_mean_levels(d, 2000)
    den0 = 1
    for m, (num, den, s) in enumerate(exact._mean_levels(d, 2000)):
        assert num * levels[m].denominator == levels[m].numerator * den
        assert den == den0 * (s if m else 1)
        den0 = den
    for m in (0, 1, 2, 3, 10, 399, 2000):
        assert expected_tau(d, m) == levels[m]
    # a weight factor scales G_m and H_m alike, so every level keeps its mean
    for m, (g, h, _) in enumerate(exact._mean_levels(d, 60, lambda m: (61 - m) * (d - 1))):
        assert g * levels[m].denominator == levels[m].numerator * h
    for n in (1, 2, 3, 10, 400, 2000):
        total, w = Fraction(0), 1
        for m in range(n + 1):
            if m > 0:
                w = w * (n - m + 1) * (d - 1) // m
            total += w * levels[m]
        assert mean_tau_stationary(d, n) == total / d**n


def test_expected_tau_d2_level2():
    assert expected_tau(2, 2) == Fraction(1, 2)  # survival e^{-2t}


def test_expected_tau_matches_laplace_at_zero():
    for d, m in [(2, 7), (3, 6), (6, 9)]:
        assert expected_tau(d, m) == laplace_V(d, m)(Fraction(0))


def _float_mean_bound(m):
    """expected_tau_float's stated relative bound at levels m:
    gamma_{4m + 3 sqrt(m) + 3}, u = 2^-53."""
    k = 4 * m + 3 * np.sqrt(m) + 3
    return k * 2.0**-53 / (1 - k * 2.0**-53)


def test_expected_tau_float_agrees_with_exact():
    # every level, and every block size the scan picks for m_max <= 500
    m = np.arange(501)
    for d in (2, 3, 4, 5, 10):
        exact_vals = np.array([num / den for num, den, _ in exact._mean_levels(d, 500)])
        assert np.all(np.abs(expected_tau_float(d, 500) - exact_vals)
                      <= _float_mean_bound(m) * exact_vals)
        for m_max in (0, 1, 2, 3, 4, 5, 17, 99, 100, 101, 257):
            got = expected_tau_float(d, m_max)
            assert got.shape == (m_max + 1,)
            assert np.all(np.abs(got - exact_vals[:m_max + 1])
                          <= _float_mean_bound(m[:m_max + 1]) * exact_vals[:m_max + 1])


def test_expected_tau_float_against_30_digit_recursion():
    mpmath = pytest.importorskip("mpmath")
    n = 20_000
    m = np.arange(n + 1)
    with mpmath.workdps(30):
        for d in (2, 5):
            chain = death_chain(Strategy.OPTIMAL, d, n)
            e1 = e2 = mpmath.mpf(0)
            ref = [0.0]
            for c1, c2 in zip(chain.c1[1:].tolist(), chain.c2[1:].tolist()):
                e1, e2 = (d - 1 + c1 * e1 + c2 * e2) / (c1 + c2), e1
                ref.append(float(e1))
            ref = np.array(ref)
            err = np.abs(expected_tau_float(d, n) - ref)
            assert np.all(err <= _float_mean_bound(m) * ref)
            assert err.max() <= 1e-13 * ref[-1]


def test_expected_tau_float_refuses_bad_levels():
    # a negative level is refused, not answered with an empty array
    for m_max in (-1, -5, 10**7 + 1):
        with pytest.raises(ValueError):
            expected_tau_float(4, m_max)
    with pytest.raises(ValueError):
        expected_tau_float(1, 10)


def test_float_levels_window_equals_full_scan():
    # windows that start and end on, just before and just after block edges
    # (blocks of isqrt(hi) + 1 levels from level 1), plus lo = 0 and lo = hi
    for d in (2, 3, 5, 10):
        for hi in (1, 2, 3, 16, 17, 18, 99, 100, 101, 2000):
            full = expected_tau_float(d, hi)
            size = isqrt(hi) + 1
            edges = range(1, hi + 1, size)
            los = {0, 1, hi} | {e + s for e in edges for s in (-1, 0, 1)}
            for lo in sorted(lo for lo in los if 0 <= lo <= hi):
                got = exact._float_levels(d, lo, hi)
                assert got.tobytes() == full[lo:].tobytes(), (d, lo, hi)


def _float_levels_per_step(d, lo, hi):
    """``exact._float_levels`` with the rates built a step at a time, as the
    scan first ran: each step reads its integer numerators and rounds
    c1 * E_{s-1} + c2 * E_{s-2} (+ (d-1) in row P) over c1 + c2."""
    size = isqrt(hi) + 1
    lanes = np.arange(1, hi + 1, size)
    blocks, first = lanes.size, max(lo - 1, 0) // size
    kept = np.empty((size, 3, blocks - first))
    prev, cur, nxt = np.zeros((3, blocks)), np.zeros((3, blocks)), np.empty((3, blocks))
    cur[1] = prev[2] = 1.0
    chain = death_chain(Strategy.OPTIMAL, d, hi)
    for j in range(size):
        c1, c2 = chain.c1[np.minimum(lanes + j, hi)], chain.c2[np.minimum(lanes + j, hi)]
        np.multiply(c1, cur, out=nxt)
        nxt += c2 * prev
        nxt[0] += d - 1
        nxt /= c1 + c2
        kept[j] = nxt[:, first:]
        prev, cur, nxt = cur, nxt, prev
    x, y = np.zeros(blocks), np.zeros(blocks)
    for k, ((p2, h2, g2), (p1, h1, g1)) in enumerate(zip(prev.T[:-1].tolist(),
                                                         cur.T[:-1].tolist())):
        x[k + 1] = p1 + x[k] * h1 + y[k] * g1
        y[k + 1] = p2 + x[k] * h2 + y[k] * g2
    levels = np.zeros((blocks - first) * size + 1)
    out = levels[1:].reshape(-1, size)
    p, h, g = kept.transpose(1, 2, 0)
    np.multiply(h, x[first:, None], out=out)
    out += p
    g *= y[first:, None]
    out += g
    return levels[lo - first * size:hi - first * size + 1]


@pytest.mark.parametrize("d", [2, 3, 5, 50])
def test_float_levels_rate_tiles_change_no_bit(d, monkeypatch):
    # hi = 0, 1, 2 and scans of 11 and 45 steps (10 and 45 blocks) in rate
    # tiles of one step, of one fewer step than the scan, of the scan's
    # steps, of one more, and of the default byte bound
    for hi in (0, 1, 2, 100, 2000):
        size = isqrt(hi) + 1
        blocks = -(-hi // size)
        for tile in (None, 1, size - 1, size, size + 1):
            if tile is not None:
                monkeypatch.setattr(exact, "_RATE_TILE", 8 * max(blocks, 1) * max(tile, 1))
            for lo in sorted(lo for lo in {0, 1, hi // 2, hi} if lo <= hi):
                assert (exact._float_levels(d, lo, hi).tobytes()
                        == _float_levels_per_step(d, lo, hi).tobytes()), (hi, tile, lo)


def _pushed_sums_per_step(stay, p1, p2, law, weights):
    """``exact._pushed_sums`` as a step-by-step loop: each step's 1-d mass
    sum, then its weighted law added to the end law."""
    masses, end, tmp = [], np.zeros(len(law)), np.empty(len(law))
    for wk, pk in zip(weights, exact._push(stay, p1, p2, law)):
        masses.append(pk[1:].sum())
        end += np.multiply(wk, pk, out=tmp)
    return np.array(masses), end


@pytest.mark.parametrize("levels", [2, 3, 40, 1001])
def test_pushed_sums_tiles_change_no_bit(levels, monkeypatch):
    # tiles of 4 laws: runs of 1, 3, 4, 5 and 9 steps; and the default bound
    chain = death_chain(Strategy.OPTIMAL, 5, levels - 1)
    lam = float(chain.lam_int)
    p1, p2 = chain.down1 / lam, chain.down2 / lam
    law = np.random.default_rng(levels).dirichlet(np.ones(levels))
    for tile in (None, 8 * levels * 4):
        if tile is not None:
            monkeypatch.setattr(exact, "_PUSH_TILE", tile)
        for steps in (1, 3, 4, 5, 9, 700):
            weights = np.random.default_rng(steps).uniform(0.0, 1.0, steps)
            args = (1.0 - p1 - p2, p1, p2, law, weights)
            masses, end = exact._pushed_sums(*args)
            ref_masses, ref_end = _pushed_sums_per_step(*args)
            assert masses.tobytes() == ref_masses.tobytes(), (tile, steps)
            assert end.tobytes() == ref_end.tobytes(), (tile, steps)


def test_expected_tau_float_at_the_int64_bound():
    # the scan pads levels to whole blocks but computes no rate past m_max,
    # so m_max * d < 2^53 is the only bound, and a refusal names m_max
    d = 2**53 // 11
    got = expected_tau_float(d, 11)
    assert got.shape == (12,) and np.all(np.isfinite(got))
    with pytest.raises(ValueError, match="got m = 12,"):
        expected_tau_float(d, 12)


def test_mk_bound_mean():
    assert mk_bound_mean(1, 1) == 1
    assert mk_bound_mean(2, 2) == Fraction(3, 4)
    assert mk_bound_mean(1, 3) == Fraction(11, 6)
    with pytest.raises(ValueError):
        mk_bound_mean(3, 2)


@pytest.mark.parametrize("d", [4, 10])
def test_mean_sandwich(d):
    # comparison chains with only -2 (resp. only -1) steps bracket the mean
    for m in range(1, 21):
        lower = mk_bound_mean(2, m)
        upper = mk_bound_mean(1, 2 * m)
        mid = expected_tau(d, 2 * m)
        assert lower <= mid <= upper, (d, m)


# --- signed difference tables ----------------------------------------------

GRID = np.geomspace(0.01, 10.0, 20)


def test_r_table_level1_positive():
    tab = r_diff_table(3, 4, GRID, eps=1e-12)
    assert (tab.r_values[0] > 0).all()
    assert (tab.r_certs[0] == SignCert.POSITIVE.value).all()


def test_r_table_d2_zero_row():
    tab = r_diff_table(2, 6, GRID, eps=1e-12)
    assert (tab.r_certs[1] == SignCert.ZERO.value).all()   # level 2 vs 1
    assert np.abs(tab.r_values[1]).max() <= 2e-12
    others = np.delete(np.arange(6), 1)
    assert (tab.r_certs[others] == SignCert.POSITIVE.value).all()


def test_diff_table_d4_zero_row_and_no_undetermined():
    tab = r_diff_table(4, 12, GRID, eps=1e-12)
    assert not tab.undetermined_cells()
    assert (tab.diff_certs[1] == SignCert.ZERO.value).all()  # r(2)-r(3) at d=4
    keep = np.delete(np.arange(11), 1)
    assert (tab.diff_certs[keep] == SignCert.POSITIVE.value).all()
    assert (tab.r_certs == SignCert.POSITIVE.value).all()


def test_sign_tables_are_bounded():
    # level 200 is the deepest table (about 0.3 s at d = 2); level 201 is
    # refused before any work, naming the bound
    tab = r_diff_table(2, 200, [1.0, 5.0])
    assert tab.diff_certs.shape == (199, 2)
    assert not tab.undetermined_cells()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="sign tables run to level at most 200"):
        r_diff_table(4, 201, [1.0, 5.0])
    assert time.perf_counter() - start < 0.1


def test_diff_table_small_t_signed_by_its_row():
    # at m = 12, t = 0.01 the raw difference is far below 2*eps, so its
    # sign can only come from its row, as the second difference's does
    tab = r_diff_table(4, 12, np.array([0.01]), eps=1e-12)
    assert tab.r_values[11, 0] < 2e-12
    assert tab.r_certs[11, 0] == SignCert.POSITIVE.value
    assert tab.diff_certs[10, 0] == SignCert.POSITIVE.value


@pytest.mark.parametrize("terms, q, sign", [
    ({1: 1, 2: -3}, 1, "undetermined"),  # e^-t - 3e^-2t: zero at t = ln 3
    ({1: -1, 2: 3}, 2, "undetermined"),
    ({1: 3, 2: -1}, 1, "positive"),
    ({1: -1, 3: -2}, 2, "negative"),
    ({}, 1, "zero"),
])
def test_row_sign_of_small_exponential_sums(terms, q, sign):
    # the sign does not depend on the time scale q; f = sum A e^{-kt/q} on a
    # grid keeps it, and takes both signs where the row is undetermined
    assert _row_sign(terms) == sign
    t = np.linspace(0.01, 20.0, 400)
    f = sum((a * np.exp(-k * t / q) for k, a in terms.items()), np.zeros_like(t))
    assert {"positive": (f > 0).all(), "negative": (f < 0).all(), "zero": (f == 0).all(),
            "undetermined": (f > 0).any() and (f < 0).any()}[sign]


def test_descartes_passes_match_the_taylor_shift():
    # (1+y)^n p(1/(1+y)) = sum_i p_i (1+y)^(n-i) built by Poly products
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = Poly(rng.integers(-4, 5, rng.integers(1, 9)).tolist())
        if not p:
            continue
        n, shifted = p.degree, Poly()
        for i, c in enumerate(p.coeffs):
            power = Poly([1])
            for _ in range(n - i):
                power = power * Poly([1, 1])
            shifted = shifted + power * c
        one_signed = min(shifted.coeffs) >= 0 or max(shifted.coeffs) <= 0
        assert _no_root_in_unit_interval(p) == one_signed, p.coeffs


@pytest.mark.parametrize("d, m_max, eps", [(2, 120, 1e-12), (3, 120, 1e-12), (4, 120, 1e-12),
                                           (10, 120, 1e-12), (4, 30, 1e-100), (10, 30, 1e-100)])
def test_every_r_cell_is_positive(d, m_max, eps):
    # r rows are signed by stochastic monotonicity, not cell by cell: at
    # m_max = 120 many values are far below any float threshold, and at
    # eps = 1e-100 some floats are rounding noise below 0.  Every second
    # difference row is signed for all t > 0 by the regime rule: NEGATIVE at
    # singles levels, POSITIVE at paired ones, ZERO only at d = 4, m = 3
    start = time.perf_counter()
    tab = r_diff_table(d, m_max, GRID, eps)
    assert time.perf_counter() - start < 5.0
    zero_r = [1] if d == 2 else []  # r(2, t) = 0 at d = 2
    assert (np.delete(tab.r_certs, zero_r, axis=0) == SignCert.POSITIVE.value).all()
    assert (tab.r_certs[zero_r] == SignCert.ZERO.value).all()
    if eps < 1e-20:
        assert (tab.r_values < 0).any()
    assert not tab.undetermined_cells()
    for m in range(2, m_max + 1):
        rule = ("negative" if _singles_mode(m, d)
                else "zero" if (d, m) == (4, 3) else "positive")
        assert (tab.diff_certs[m - 2] == rule).all(), (d, m)


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_spectral_table_matches_the_uniformized_tails(d):
    # v(m, t) = sum_k A e^{-kt/(d-1)} / den, evaluated at 40 digits
    mpmath = pytest.importorskip("mpmath")
    levels = _spectral_levels(death_chain(Strategy.OPTIMAL, d, 12))
    tails = survival_table(d, 12, GRID).values
    with mpmath.workdps(40):
        for m, (den, terms) in enumerate(levels):
            for j, t in enumerate(GRID):
                t = mpmath.mpf(float(t))
                exact = sum(a * mpmath.exp(-k * t / (d - 1)) for k, a in terms.items()) / den
                assert abs(exact - tails[m, j]) <= 1e-13, (m, j)


def test_spectral_table_has_no_all_zero_key():
    # at d = 4 level 3's key 9 cancels; kept, it would give its transform a
    # spurious pole at -3
    for d in range(2, 13):
        for m, (_, terms) in enumerate(_spectral_levels(death_chain(Strategy.OPTIMAL, d, 40))):
            assert all(terms.values()), (d, m)
    f = laplace_V(4, 3)
    assert (f.num, f.den) == (Poly([10, 3]), Poly([8, 10, 3]))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 10])
def test_spectral_table_of_the_independent_coupling(d):
    # 1 - (1 - e^{-2t/(d-1)})^m = sum_{j=1..m} -C(m, j) (-1)^j e^{-2jt/(d-1)}:
    # key 2j with A/den = (-1)^(j+1) C(m, j)
    levels = _spectral_levels(death_chain(Strategy.INDEPENDENT, d, 40))
    for m, (den, terms) in enumerate(levels):
        assert {k: Fraction(a, den) for k, a in terms.items()} \
            == {2 * j: (-1) ** (j + 1) * comb(m, j) for j in range(1, m + 1)}, (d, m)


@pytest.mark.parametrize("d", [2, 3, 4, 7, 10])
def test_spectral_table_of_the_synchronous_coupling(d):
    # the unmatched count never moves, so every level's tail is 1
    levels = _spectral_levels(death_chain(Strategy.SYNCHRONOUS, d, 40))
    assert levels[1:] == [(1, {0: 1})] * 40


def test_spectral_tables_at_d2_match_the_optimal_one():
    # pairwise-classic is the optimal coupling at d = 2 (the Connor-Jacka
    # hypercube coupling), and independent has the optimal tail at m = 1
    optimal = _spectral_levels(death_chain(Strategy.OPTIMAL, 2, 40))
    assert _spectral_levels(death_chain(Strategy.PAIRWISE_CLASSIC, 2, 40)) == optimal
    independent = _spectral_levels(death_chain(Strategy.INDEPENDENT, 2, 40))
    assert independent[1] == optimal[1]
    assert all(independent[m] != optimal[m] for m in range(2, 41))


def test_pairwise_classic_tables_build_where_its_rates_collide():
    # at even d >= 4 level 2j (j odd) shares its exit rate with level
    # j(d-1), but level 2j's own key has coefficient 0, so no level is
    # forced at its own rate
    for d in range(4, 101, 2):
        levels = _spectral_levels(death_chain(Strategy.PAIRWISE_CLASSIC, d, 100))
        assert levels[100][1], d


def test_level_forced_at_its_own_rate_is_refused():
    # level 2 exits at rate 2/2, the rate of level 1, which it reads: its
    # tail would need a t e^{-t} term
    chain = DeathChain(3, 2, np.array([0, 2, 2]), np.array([0, 0, 0]))
    with pytest.raises(ValueError, match="level 2 is forced at its own exit rate 2/2"):
        _spectral_levels(chain)


def _absorbed_by(chain, t):
    """P(N_t = 0 | N_0 = m) for m = 0..m_max: exp(Q t) e_0 summed as its
    Taylor series in mpmath's working precision (``mpmath.expm`` of the full
    matrix gives the same digits but takes about 11 s per time at 160
    digits).  Each row of Q t has absolute sum at most x = 2 Lam t, so the
    k-th term is below x^k / k!, and the sum stops once that bound is below
    10^-dps and falls at least twofold per term."""
    mpmath = pytest.importorskip("mpmath")
    c1, c2 = chain.c1.tolist(), chain.c2.tolist()
    h = mpmath.mpf(float(t)) / (chain.d - 1)
    x = 2 * chain.lam_int * float(t)
    term = [mpmath.mpf(m == 0) for m in range(chain.m_max + 1)]
    total, k, bound = list(term), 0, mpmath.mpf(1)
    while k <= 2 * x or bound > mpmath.mpf(10) ** -mpmath.mp.dps:
        k += 1
        bound *= x / k
        term = [mpmath.mpf(0)] + [
            h * (c1[m] * term[m - 1] + (c2[m] * term[m - 2] if m >= 2 else 0)
                 - (c1[m] + c2[m]) * term[m]) / k for m in range(1, chain.m_max + 1)]
        total = [a + b for a, b in zip(total, term)]
    return total


def test_r_cells_below_50_digits_are_positive():
    # five r cells at (4, 60) with values of 5e-64 to 2e-49, below the
    # 1e-50 resolution of a 50-digit reference, checked at 160 digits
    mpmath = pytest.importorskip("mpmath")
    chain = death_chain(Strategy.OPTIMAL, 4, 60)
    tab = r_diff_table(4, 60, GRID, eps=1e-12)
    cells = [(59, 2), (60, 0), (60, 1), (60, 2), (60, 3)]
    with mpmath.workdps(160):
        for m, j in cells:
            absorbed = _absorbed_by(chain, GRID[j])
            r = absorbed[m - 1] - absorbed[m]  # r(m, t) = v(m, t) - v(m-1, t)
            assert mpmath.mpf(10) ** -65 < r < mpmath.mpf(10) ** -48
            assert tab.r_certs[m - 1, j] == SignCert.POSITIVE.value


def test_d3_diff_row_negative_is_reported():
    # no sign claim is made for d=3 second differences; the table still
    # reports the true signs, and level 3 is genuinely reversed
    tab = r_diff_table(3, 5, GRID, eps=1e-12)
    assert (tab.diff_certs[1] == SignCert.NEGATIVE.value).all()  # r(2)-r(3) < 0


def test_generator_exit_rates():
    gen = death_chain(Strategy.OPTIMAL, 3, 8)
    exit_rate = gen.down1 + gen.down2
    for m in range(1, 9):
        if _singles_mode(m, 3):
            assert exit_rate[m] == pytest.approx(m * 3 / 2)
        else:
            assert exit_rate[m] == pytest.approx(m)
    assert exit_rate[0] == 0


def test_sign_certificates_are_pinned():
    # the sign of every cell.  The per-cell route that the row signs replaced
    # left one cell undetermined, the diff cell at (d, m, t) = (4, 60,
    # grid[2]); with that cell marked so, the old digest comes back, so each
    # cell the old route signed agrees with its row
    digest, old = hashlib.sha256(), hashlib.sha256()
    grid = np.geomspace(0.01, 10, 20)
    for d, m_max in [(2, 30), (3, 30), (4, 30), (5, 30), (10, 30), (4, 60)]:
        table = r_diff_table(d, m_max, grid)
        marked = table.diff_certs.copy()
        if (d, m_max) == (4, 60):
            marked[58, 2] = SignCert.UNDETERMINED.value
        for h, certs in ((digest, table.r_certs), (digest, table.diff_certs),
                         (old, table.r_certs), (old, marked)):
            h.update(",".join(certs.ravel()).encode() + b";")
    assert old.hexdigest() == (
        "9af8fac37c382e92653ae0b1603c49caa969288af79dd57a69804604721b2f7d")
    assert digest.hexdigest() == (
        "496dbb9ea49deaa4810ccd0d8f8bd51394329fdc0709de3ba68b4257e8b54ebb")


def test_tail_and_difference_floats_are_pinned():
    # the float bits of the tails and of both difference tables
    digest = hashlib.sha256()
    for d, m_max, grid in [(2, 12, np.linspace(0, 12, 50)), (5, 30, np.array([0, 0.5, 1, 2.0])),
                           (10, 30, np.geomspace(0.01, 10, 20))]:
        digest.update(survival_table(d, m_max, grid).values.tobytes())
    grid = np.geomspace(0.01, 10, 20)
    for d, m_max in [(2, 30), (3, 30), (4, 30), (5, 30), (10, 30), (4, 60)]:
        table = r_diff_table(d, m_max, grid)
        digest.update(table.r_values.tobytes() + table.diff_values.tobytes())
    assert digest.hexdigest() == (
        "0c89f43c2c9060a7ed6b7d30d4b7599deaafc034b011b34c4494a828af261341")


@pytest.mark.parametrize("block", [1, 2000, 5000])
def test_tail_column_blocks_change_no_bit(block, monkeypatch):
    # 37 points and k_max = 316: blocks of 2-4 columns at block = 1, 5-6 and
    # 12-13 columns above
    d, m_max = 4, 25
    grid = np.random.default_rng(3).uniform(0.0, 6.0, 37)
    whole = survival_table(d, m_max, grid).values
    sizes, weights = [], exact._poisson_weights

    def recorded(lam_t, k_max):
        sizes.append((len(lam_t), k_max + 1))
        return weights(lam_t, k_max)

    monkeypatch.setattr(exact, "_BLOCK", block)
    monkeypatch.setattr(exact, "_poisson_weights", recorded)
    assert np.array_equal(survival_table(d, m_max, grid).values, whole)
    assert len(sizes) > 1 and sum(cols for cols, _ in sizes) == len(grid)
    assert all(2 <= cols and cols * rows <= max(block, 4 * rows) for cols, rows in sizes)


def _reference_tails(d, m_max, t_grid):
    """v(m, t) as integer numerators over 2^256, within about 1e-34:
    Poisson weights from mpmath at 60 digits, uniformization steps on
    128-bit fixed-point integers (each step's floor costs at most 2^-128)."""
    mpmath = pytest.importorskip("mpmath")
    chain = death_chain(Strategy.OPTIMAL, d, m_max)
    lam, one = int(chain.lam_int), 1 << 128
    dd = (d - 1) * lam
    c1, c2 = [int(c) for c in chain.c1], [int(c) for c in chain.c2]
    k_max = int(lam * max(t_grid) + 20 * (lam * max(t_grid)) ** 0.5 + 100)
    weights = []
    with mpmath.workdps(60):
        for t in t_grid:
            lt = lam * mpmath.mpf(float(t))
            w, total, col = mpmath.exp(-lt), mpmath.mpf(0), []
            for k in range(k_max + 1):
                w = w * lt / k if k else w
                total += w
                col.append(int(w * one))
            assert 1 - total < mpmath.mpf(10) ** -35
            weights.append(col)
    s, steps = [0] + [one] * m_max, []
    for _ in range(k_max + 1):
        steps.append(s)
        s = [0] + [((dd - c1[m] - c2[m]) * s[m] + c1[m] * s[m - 1]
                    + (c2[m] * s[m - 2] if m >= 2 else 0)) // dd for m in range(1, m_max + 1)]
    levels = list(zip(*steps))
    return [[sum(map(operator.mul, levels[m], col)) for col in weights]
            for m in range(m_max + 1)], one * one


def _tail_and_difference_errors(values, ref, den):
    """Max abs errors of the tails, r(m, t) and r(m-1, t) - r(m, t)."""
    r = values[1:] - values[:-1]
    ref_r = [[a - b for a, b in zip(hi, lo)] for hi, lo in zip(ref[1:], ref[:-1])]
    ref_diff = [[a - b for a, b in zip(hi, lo)] for hi, lo in zip(ref_r[:-1], ref_r[1:])]
    return tuple(float(np.abs(x - np.array([[v / den for v in row] for row in exact])).max())
                 for x, exact in ((values, ref), (r, ref_r), (r[:-1] - r[1:], ref_diff)))


@pytest.mark.parametrize("d, m_max, grid", [
    (2, 12, np.linspace(0, 12, 50)), (5, 30, np.array([0, 0.5, 1, 2.0])),
    *[(d, m_max, np.geomspace(0.01, 10, 20))
      for d, m_max in [(2, 30), (3, 30), (4, 30), (5, 30), (10, 30), (4, 60)]],
])
def test_pinned_floats_are_no_further_from_a_reference_than_log_space_weights(
        d, m_max, grid, monkeypatch):
    # the configurations of test_tail_and_difference_floats_are_pinned: the
    # ratio-recurrence weights that set its digest are at least as close to
    # a 34-digit reference as the log-space weights they replaced
    ref, den = _reference_tails(d, m_max, grid)
    new = _tail_and_difference_errors(survival_table(d, m_max, grid).values, ref, den)

    def log_space_weights(lam_t, k_max):
        k = np.arange(k_max + 1)[:, None]
        lt = np.where(lam_t > 0, lam_t, 1.0)
        w = np.exp(-lt + k * np.log(lt) - gammaln(k + 1))
        w[:, lam_t == 0] = k == 0
        return w

    monkeypatch.setattr(exact, "_poisson_weights", log_space_weights)
    old = _tail_and_difference_errors(survival_table(d, m_max, grid).values, ref, den)
    assert all(a <= b for a, b in zip(new, old)), (new, old)
    assert max(new) <= 2e-15


def test_certificate_beyond_its_rounding_bound_is_refused():
    # t = 1e4 takes about 40,000 uniformization terms, past the rounding
    # bound of any per-cell certificate; a row sign holds for all t > 0, so
    # nothing is refused and the cells are signed
    start = time.perf_counter()
    tab = r_diff_table(4, 2, [10000.0])
    assert time.perf_counter() - start < 5.0
    assert tab.r_certs.ravel().tolist() == ["positive", "positive"]
    assert tab.diff_certs.ravel().tolist() == ["positive"]


# --- assumptions of the sign certificates --------------------------------------

@pytest.mark.parametrize("strategy", list(Strategy))
def test_uniformized_chains_are_monotone(strategy):
    # c1[m] + c2[m] >= c2[m+1]: the |q_k| <= 1 tail bound of second differences
    for d in range(2, 13):
        chain = death_chain(strategy, d, 300)
        assert (chain.c1[1:-1] + chain.c2[1:-1] >= chain.c2[2:]).all()
        _check_monotone(chain)


def test_nonmonotone_chain_is_refused():
    # level 2 sends mass 5 to level 0, level 1 only 2: not monotone at m = 1
    chain = DeathChain(3, 3, np.array([0, 2, 0, 3]), np.array([0, 0, 5, 0]))
    with pytest.raises(ValueError, match="not stochastically monotone at level 1"):
        _check_monotone(chain)


@pytest.mark.parametrize("d", [3, 5, 10])
def test_certificate_encloses_50_digit_value(d):
    # second differences below the 2*eps float rule at small t, against
    # exp(Qt) at 50 digits: each cell's row sign is the reference's sign
    mpmath = pytest.importorskip("mpmath")
    m_max, t_grid = 10, np.array([1e-4, 1e-3, 1e-2, 0.05])
    chain = death_chain(Strategy.OPTIMAL, d, m_max)
    tab = r_diff_table(d, m_max, t_grid)
    rows, cols = np.nonzero(np.abs(tab.diff_values) <= 2e-12)
    assert rows.size >= 4
    mpmath.mp.dps = 50
    Q = mpmath.zeros(m_max + 1)
    for m in range(1, m_max + 1):
        Q[m, m] = -mpmath.mpf(int(chain.c1[m] + chain.c2[m])) / (d - 1)
        Q[m, m - 1] = mpmath.mpf(int(chain.c1[m])) / (d - 1)
        if m >= 2:
            Q[m, m - 2] = mpmath.mpf(int(chain.c2[m])) / (d - 1)
    for j in np.unique(cols):
        P = mpmath.expm(Q * mpmath.mpf(t_grid[j]))
        rr = [P[m - 1, 0] - P[m, 0] for m in range(1, m_max + 1)]
        exact = [a - b for a, b in zip(rr, rr[1:])]
        for i in np.flatnonzero(cols == j):
            assert exact[rows[i]] != 0
            sign = "positive" if exact[rows[i]] > 0 else "negative"
            assert tab.diff_certs[rows[i], j] == sign
