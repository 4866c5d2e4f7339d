"""Total-variation distance from stationarity, cutoff profile, and limits.

The walk started at 0 has i.i.d. coordinates, each on the complete graph
K_d, so its law at time t is a product measure determined by the single
coordinate law (probability ``a`` of sitting at the start value, ``b`` of
sitting at each other value).  Total variation against the uniform law then
lumps over the number of coordinates at their start value: the exact
distance is the gap between two binomial tails, each summed over a window of
O(sqrt(n)) levels around its mode.

Also here: the exact tail of the optimal coupling from a uniform start (a
binomial mixture over the initial unmatched count), the d -> infinity
limiting tail 1 - (1 - e^{-t})^n, and the expected coupling time from a
uniform start.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import _MAX_MEAN_LEVEL, _float_levels, _mean_levels, _start_law_tail, _time_grid
from .simulate import SurvivalCurve
from .strategies import _check_level, _count

__all__ = [
    "CoordinateLaw",
    "CutoffPoint",
    "coordinate_law",
    "tv_exact",
    "cutoff_time",
    "cutoff_profile",
    "survival_from_stationary",
    "limit_tail",
    "dinfty_convergence",
    "mean_tau_stationary",
]


@dataclass(frozen=True)
class CoordinateLaw:
    """Law of one coordinate at time t: P(start value) = a, P(other) = b."""

    d: int
    t: float
    a: float
    b: float


def coordinate_law(d: int, t: float) -> CoordinateLaw:
    """Spectral solution of the rate-1 walk on K_d (relaxation rate d/(d-1));
    t passes ``_time_grid`` and must be a scalar."""
    d = _count("d", d, 2)
    _time_grid(t)
    if np.ndim(t):
        raise ValueError(f"t must be a scalar, got shape {np.shape(t)}")
    a = 1.0 / d + (1.0 - 1.0 / d) * math.exp(-d * t / (d - 1))
    return CoordinateLaw(d=d, t=t, a=a, b=(1.0 - a) / (d - 1))


_TV_MAX_N = 10**10  # largest n of tv_exact: windows of up to 1.2e6 levels


def tv_exact(d: int, n: int, t: float) -> float:
    """Exact TV distance between the time-t law (start 0) and uniform.

    Lumped over K = number of coordinates at the start value, the walk's
    likelihood ratio to uniform, (a d)^K (d b)^(n-K), is increasing in K, so
    TV = P(K >= k*) under Binomial(n, a) minus the same under Binomial(n, 1/d),
    with k* the first K where the ratio exceeds 1.  Each tail is summed over
    a window of L levels around its mode (``_binomial_sf``), so a point costs
    O(sqrt(n)).  With u = 2^-53, the result is within
    1e-24 + 4 u (L_a + L_u) of the distance for this float ``a``: the mass
    outside the windows is below 1e-24, and the ratio recurrence, the sums
    and the subtraction round by at most 4 u L per window.  n up to 10^10.
    """
    n = _count("n", n, 1)
    if n > _TV_MAX_N:
        raise ValueError(f"n must be in [1, {_TV_MAX_N}]")
    law = coordinate_law(d, t)
    if law.b == 0.0:  # point mass vs uniform
        return 1.0 - float(d) ** (-n)
    if law.a * d <= 1.0:  # uniform to float precision
        return 0.0
    r1 = math.log(law.a * d)
    r2 = -math.log(d * law.b)
    k_star = math.floor(n * r2 / (r1 + r2)) + 1
    if k_star > n:
        return 0.0
    gap = _binomial_sf(n, law.a, k_star) - _binomial_sf(n, 1.0 / d, k_star)
    return min(max(gap, 0.0), 1.0)


def _binomial_window(n: int, p: float) -> tuple[int, int]:
    """Levels lo..hi around the mode of Binomial(n, p) holding all but
    1e-24 of its mass.  The window reaches x >= 12 sd + 38 past the mean
    each way, and by Bernstein's inequality the two tails beyond hold at most
    2 exp(-x^2 / (2 (sd^2 + x/3))) <= 2 exp(-57) < 1e-24."""
    mode = min(n, math.floor((n + 1) * p))
    half = math.ceil(12.0 * math.sqrt(n * p * (1.0 - p))) + 40
    return max(0, mode - half), min(n, mode + half)


def _binomial_sf(n: int, p: float, k: int) -> float:
    """P(K >= k) for K ~ Binomial(n, p), from the normalised weights of the
    window ``_binomial_window`` (error bound in ``tv_exact``)."""
    lo, hi = _binomial_window(n, p)
    if k > hi:
        return 0.0
    return float(_binomial_weights(n, p, lo, hi)[max(k - lo, 0):].sum())


def cutoff_time(d: int, n: int) -> float:
    """Center of the TV cutoff window: ((d-1)/d) * log(n) / 2."""
    d, n = _count("d", d, 2), _count("n", n, 1)
    return 0.5 * (d - 1) / d * math.log(n)


@dataclass(frozen=True)
class CutoffPoint:
    d: int
    n: int
    theta: float
    cutoff: float
    t: float
    tv_exact: float
    tv_asymptotic: float
    clamped: bool = False


def _ndtr(x: float) -> float:
    """Standard normal CDF, with the erf/erfc split of cephes ``ndtr``."""
    z = x * math.sqrt(0.5)
    if abs(z) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(z)
    y = 0.5 * math.erfc(abs(z))
    return 1.0 - y if z > 0 else y


def cutoff_profile(d: int, n: int, theta_list) -> list[CutoffPoint]:
    """Exact TV at cutoff + theta, next to its n -> infinity profile value
    2*Phi(sqrt(d-1)/2 * exp(-d*theta/(d-1))) - 1 (Phi via erf/erfc, <=1e-12
    error).  Finite negative times are clamped to 0 and flagged; -inf, like
    +inf and nan, is refused by ``tv_exact``'s time rule."""
    n, d = _count("n", n, 2), _count("d", d, 2)
    t_c = cutoff_time(d, n)
    out = []
    for theta in theta_list:
        theta = float(theta)
        t = t_c + theta
        clamped = -math.inf < t < 0
        if clamped:
            t = 0.0
        spread = math.exp(min(-d * theta / (d - 1), 709.0))  # Phi is 1.0 long before overflow
        asym = 2.0 * _ndtr(math.sqrt(d - 1) / 2.0 * spread) - 1.0
        out.append(CutoffPoint(d=d, n=n, theta=theta, cutoff=t_c, t=t,
                               tv_exact=tv_exact(d, n, t), tv_asymptotic=asym,
                               clamped=clamped))
    return out


def _binomial_weights(n: int, p: float, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Binomial(n, p) probabilities at levels lo..hi (default 0..n), which
    must hold the mode, normalised to sum to one over those levels.  The
    ratio recurrence w[k+1]/w[k] = (n-k)/(k+1) * p/(1-p) runs outward from
    the mode as a cumulative product, so a weight |k - mode| steps out is off
    by a few |k - mode| 2^-53 relatively; no large logarithms cancel."""
    hi = n if hi is None else hi
    k = np.arange(lo, hi + 1.0)
    mode = min(n, math.floor((n + 1) * p)) - lo
    odds = p / (1.0 - p)
    up = np.ones(k.size)
    up[mode + 1:] = (n - k[mode:-1]) / k[mode + 1:] * odds
    down = np.ones(k.size)
    down[:mode] = (k[:mode] + 1.0) / (n - k[:mode]) / odds
    w = np.cumprod(down[::-1])[::-1]
    w *= np.cumprod(up)
    w /= w.sum()
    return w


_STATIONARY_MAX_N = 50_000  # largest n of survival_from_stationary


def survival_from_stationary(d: int, n: int, t_grid, eps: float = 1e-12) -> SurvivalCurve:
    """Exact tail of the optimal coupling time, X_0 = 0 and Y_0 uniform.

    The initial unmatched count is Binomial(n, 1 - 1/d); its law is pushed
    forward by adaptive uniformization (``exact._start_law_tail``), |err| <= eps.
    n above 5*10^4 is refused with ValueError before any work: the cost
    grows about as n^2.3, and n = 5*10^4 already takes about 10 s at d = 5
    and 16-20 s at d = 2 and 50 on 50 points over [0, 12] (Xeon).
    """
    if _count("n", n, 1) > _STATIONARY_MAX_N:
        raise ValueError(f"the stationary tail runs to n at most {_STATIONARY_MAX_N};"
                         f" n = {n} was asked")
    n, d = _check_level(n, d)  # d >= 2 before 1 - 1/d
    t_grid, value = _start_law_tail(d, _binomial_weights(n, 1.0 - 1.0 / d), t_grid, eps)
    zeros = np.zeros_like(t_grid)
    return SurvivalCurve(t_grid=t_grid, value=value, half_width_95=zeros,
                         half_width_3sigma=zeros, replicates=0, kind="exact", eps=eps)


def limit_tail(n: int, t):
    """d -> infinity limit: both the TV distance and the optimal-coupling
    tail converge to 1 - (1 - e^{-t})^n.  t passes ``_time_grid``; a scalar
    gives a float."""
    n = _count("n", n, 1)
    t = np.asarray(t, dtype=float)
    _time_grid(t)
    out = 1.0 - (-np.expm1(-t)) ** n
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GapEntry:
    d: int
    sup_gap: float
    argmax_t: float


def dinfty_convergence(n: int, d_list, t_grid, eps: float = 1e-12) -> list[GapEntry]:
    """Sup-distance on the grid between the exact coupling tail from a
    uniform start and its d -> infinity limit, for each d (expected to
    shrink as d grows)."""
    d_list = list(d_list)
    if any(d2 <= d1 for d1, d2 in zip(d_list, d_list[1:])):
        raise ValueError("d_list must be strictly increasing")
    t_grid = _time_grid(t_grid)
    lim = limit_tail(n, t_grid)
    out = []
    for d in d_list:
        gap = np.abs(survival_from_stationary(d, n, t_grid, eps).value - lim)
        j = int(np.argmax(gap))
        out.append(GapEntry(d=d, sup_gap=float(gap[j]), argmax_t=float(t_grid[j])))
    return out


def mean_tau_stationary(d: int, n: int, exact: bool | None = None):
    """E[coupling time] with Y_0 uniform: binomial mixture of per-level means.

    Exact rational up to n = 2000, the default there: the exact path runs
    ``exact._mean_levels`` with the binomial weight folded in, level m's
    factor (n-m+1)(d-1), sums its integer numerators by Horner over
    prod (m s_m), reduces once, and refuses a larger n with ValueError;
    every product takes one factor of a few digits.  Above it the binomial
    weights are float64 over ``_binomial_window`` (which drops under 1e-24
    of the mass), and ``exact._float_levels`` gives the level means of that
    window only: it scans the levels up to the window's top but keeps the
    rows of the window's blocks alone, each level equal to
    ``expected_tau_float``'s.  Every weight and level is nonnegative, so the
    dot product stays relatively accurate.  The float path refuses n whose
    window reaches past level 10^7 (n above about 10^7 d/(d-1)) with
    ValueError.  Returns a Fraction or a float accordingly.
    """
    n, d = _check_level(_count("n", n, 1), d)  # d >= 2 before 1 - 1/d
    if exact is None:
        exact = n <= _MAX_MEAN_LEVEL
    if exact:
        # with f_m = (n-m+1)(d-1), G_m / (m! D_m) = C(n, m) (d-1)^m E_m, so
        # Horner over Q_m = m! D_m gives total / Q_n = sum_m G_m / Q_m
        levels = _mean_levels(d, n, lambda m: (n - m + 1) * (d - 1))
        next(levels)  # level 0: G_0 = 0
        total, q = 0, 1
        for m, (g, _, s) in enumerate(levels, 1):
            total, q = total * (m * s) + g, q * (m * s)
        return Fraction(total, q * d**n)
    p = 1.0 - 1.0 / d
    lo, hi = _binomial_window(n, p)
    return float(_binomial_weights(n, p, lo, hi) @ _float_levels(d, lo, hi))
