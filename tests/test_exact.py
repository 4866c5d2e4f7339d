import hashlib
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from scipy.integrate import quad

from cowalk.exact import (
    SignCert,
    _certify_exact,
    _check_monotone,
    check_total_monotone,
    expected_tau,
    expected_tau_float,
    laplace_R,
    laplace_V,
    mk_bound_mean,
    r_diff_table,
    survival_exact,
    survival_table,
)
from cowalk.ratfun import Poly, RationalFn, poly_gcd
from cowalk.strategies import DeathChain, Regime, Strategy, death_chain, regime


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


def test_invalid_args():
    with pytest.raises(ValueError):
        survival_table(4, 5, [0.5], eps=0.0)
    with pytest.raises(ValueError):
        survival_table(4, 5, [-1.0])
    with pytest.raises(ValueError, match="t_grid must be nonempty"):
        survival_table(3, 2, [])
    with pytest.raises(ValueError):
        survival_exact(4, -1, [0.5])


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
        if regime(m, d) is Regime.C3:
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
        if regime(m, d) is Regime.C3:
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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 10])
def test_transforms_canonical(d):
    # coprime, jointly content-free integer coefficients, positive leading
    # denominator coefficient: the form generic arithmetic would produce
    for m in range(1, 31):
        for f in (laplace_V(d, m), laplace_R(d, m)):
            if f.is_zero:
                assert f.den == Poly([1])
                continue
            coeffs = f.num.coeffs + f.den.coeffs
            assert all(c.denominator == 1 for c in coeffs)
            content = 0
            for c in coeffs:
                content = gcd(content, int(c))
            assert content == 1, (d, m)
            assert f.den.coeffs[-1] > 0
            assert poly_gcd(f.num, f.den).degree == 0, (d, m)


def test_zero_transform_rows():
    # R(m) vanishes only at (d=2, m=2), R(m-1) - R(m) only at (d=4, m=3)
    from cowalk.exact import _transform_levels

    r_zero, diff_zero = [], []
    for d in range(2, 13):
        levels = _transform_levels(d, 30)
        r_zero += [(d, m) for m in range(1, 31) if not levels.r_numerator(m)]
        diff_zero += [(d, m) for m in range(2, 31) if not levels.second_diff_numerator(m)]
        for m in range(2, 9):
            generic = laplace_R(d, m - 1) - laplace_R(d, m)
            assert generic.is_zero == ((d, m) in diff_zero), (d, m)
    assert r_zero == [(2, 2)]
    assert diff_zero == [(4, 3)]


@pytest.mark.parametrize("d", range(2, 13))
def test_level_recursions_exact(d):
    # paired-mode identity (m + a)(d-1) V(m) = (d-1) + m V(m-2) + m(d-2) V(m-1)
    # at paired levels; singles-mode identity (m d + a(d-1)) V(m) =
    # (d-1) + m d V(m-1) at singles levels
    a = alpha_poly()
    for m in range(1, 16):
        vm = laplace_V(d, m)
        if regime(m, d) is Regime.C2:
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
            if regime(m, d) is Regime.C2 and regime(m + 1, d) is Regime.C2]


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


def test_expected_tau_d2_level2():
    assert expected_tau(2, 2) == Fraction(1, 2)  # survival e^{-2t}


def test_expected_tau_matches_laplace_at_zero():
    for d, m in [(2, 7), (3, 6), (6, 9)]:
        assert expected_tau(d, m) == laplace_V(d, m)(Fraction(0))


def test_expected_tau_float_agrees_with_exact():
    for d in (2, 3, 10):
        exact_vals = [float(expected_tau(d, m)) for m in range(0, 41)]
        float_vals = expected_tau_float(d, 40)
        assert np.abs(np.array(exact_vals) - float_vals).max() < 1e-12


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


# --- total monotonicity spot checks ----------------------------------------

def test_total_monotone_R1():
    rep = check_total_monotone(laplace_R(5, 1), 8, [0, Fraction(1, 2), 1, 2, 5])
    assert rep.passed


def test_total_monotone_rejects_negative_constant():
    rep = check_total_monotone(RationalFn(Poly([-1])), 3, [0, 1])
    assert not rep.passed
    assert rep.failures[0][0] == 0


def test_total_monotone_zero_function():
    rep = check_total_monotone(laplace_R(4, 2) - laplace_R(4, 3), 6, [0, 1, 2])
    assert rep.passed


def test_total_monotone_pole_raises():
    f = RationalFn(Poly([1]), Poly([-1, 1]))  # pole at a = 1
    with pytest.raises(ZeroDivisionError):
        check_total_monotone(f, 2, [1])


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


def test_diff_table_small_t_certified_by_exact_path():
    # at m = 12, t = 0.01 the raw difference is far below 2*eps, so the cell
    # must be signed by the exact integer certificate, not the float rule
    tab = r_diff_table(4, 12, np.array([0.01]), eps=1e-12)
    assert tab.r_values[11, 0] < 2e-12
    assert tab.r_certs[11, 0] == SignCert.POSITIVE.value


def test_d3_diff_row_negative_is_reported():
    # no sign claim is made for d=3 second differences; the table still
    # reports the true signs, and level 3 is genuinely reversed
    tab = r_diff_table(3, 5, GRID, eps=1e-12)
    assert (tab.diff_certs[1] == SignCert.NEGATIVE.value).all()  # r(2)-r(3) < 0


def test_generator_exit_rates():
    gen = death_chain(Strategy.OPTIMAL, 3, 8)
    for m in range(1, 9):
        if regime(m, 3) is Regime.C3:
            assert gen.exit_rate[m] == pytest.approx(m * 3 / 2)
        else:
            assert gen.exit_rate[m] == pytest.approx(m)
    assert gen.exit_rate[0] == 0


def test_sign_certificates_are_pinned():
    # the certificate of every cell; (4, 60) leaves six cells undetermined
    digest = hashlib.sha256()
    grid = np.geomspace(0.01, 10, 20)
    for d, m_max in [(2, 30), (3, 30), (4, 30), (5, 30), (10, 30), (4, 60)]:
        table = r_diff_table(d, m_max, grid)
        for certs in (table.r_certs, table.diff_certs):
            digest.update(",".join(certs.ravel()).encode() + b";")
    assert digest.hexdigest() == (
        "1697085ed5ac1b49b13003624b6339a10b31056c94e706ee1ac7d11d5ecc9eb5")


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
        "ab45cd02b1ab7427493fff1e21e264dc6f4831c4ebf20686424c42d03a3d6644")


def test_certificate_beyond_its_rounding_bound_is_refused():
    # a 60,040-term head at t = 1e4; the slack covers heads under 5e4 terms
    start = time.perf_counter()
    with pytest.raises(ValueError, match="terms"):
        r_diff_table(4, 2, [10000.0])
    assert time.perf_counter() - start < 5.0


# --- assumptions and rounding of the exact certificate -------------------------

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
        _certify_exact(chain, np.array([3]), np.array([0]), np.array([0.5]))


@pytest.mark.parametrize("d", [3, 5, 10])
def test_certificate_encloses_50_digit_value(d):
    # cells below the 2*eps float rule at small t, against exp(Qt) at 50 digits
    mpmath = pytest.importorskip("mpmath")
    m_max, t_grid = 10, np.array([1e-3, 1e-2, 0.05])
    chain = death_chain(Strategy.OPTIMAL, d, m_max)
    r = np.diff(survival_table(d, m_max, t_grid).values, axis=0)
    rows, cols = np.nonzero(np.abs(np.concatenate([r, r[:-1] - r[1:]])) <= 2e-12)
    assert rows.size >= 4
    lo, hi = _certify_exact(chain, rows, cols, t_grid)
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
        exact = rr + [a - b for a, b in zip(rr, rr[1:])]
        for i in np.flatnonzero(cols == j):
            assert lo[i] <= exact[rows[i]] <= hi[i]
            assert lo[i] > 0 or hi[i] < 0
