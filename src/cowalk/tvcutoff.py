"""Total-variation distance from stationarity, cutoff profile, and limits.

The walk started at 0 has i.i.d. coordinates, each on the complete graph
K_d, so its law at time t is a product measure determined by the single
coordinate law (probability ``a`` of sitting at the start value, ``b`` of
sitting at each other value).  Total variation against the uniform law then
lumps over the number of coordinates at their start value: the exact
distance is the gap between two binomial tails, two incomplete beta values
per time point at any n.

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
from scipy.special import betainc, gammaln, ndtr

from .exact import expected_tau, expected_tau_float, survival_table
from .simulate import SurvivalCurve

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
    """Spectral solution of the rate-1 walk on K_d (relaxation rate d/(d-1))."""
    if t < 0:
        raise ValueError("t must be >= 0")
    a = 1.0 / d + (1.0 - 1.0 / d) * math.exp(-d * t / (d - 1))
    return CoordinateLaw(d=d, t=t, a=a, b=(1.0 - a) / (d - 1))


def tv_exact(d: int, n: int, t: float) -> float:
    """Exact TV distance between the time-t law (start 0) and uniform.

    Lumped over K = number of coordinates at the start value, the walk's
    likelihood ratio to uniform, (a d)^K (d b)^(n-K), is increasing in K, so
    TV = P(K >= k*) under Binomial(n, a) minus the same under Binomial(n, 1/d),
    with k* the first K where the ratio exceeds 1.  Each tail is one
    regularized incomplete beta value, accurate to a few ulps at any n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
    gap = betainc(k_star, n - k_star + 1, law.a) - betainc(k_star, n - k_star + 1, 1.0 / d)
    return min(max(float(gap), 0.0), 1.0)


def cutoff_time(d: int, n: int) -> float:
    """Center of the TV cutoff window: ((d-1)/d) * log(n) / 2."""
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


def cutoff_profile(d: int, n: int, theta_list) -> list[CutoffPoint]:
    """Exact TV at cutoff + theta, next to its n -> infinity profile value
    2*Phi(sqrt(d-1)/2 * exp(-d*theta/(d-1))) - 1 (Phi via erfc, <=1e-12 error).
    Negative times are clamped to 0 and flagged."""
    if n < 2:
        raise ValueError("n must be >= 2")
    t_c = cutoff_time(d, n)
    out = []
    for theta in theta_list:
        theta = float(theta)
        t = t_c + theta
        clamped = t < 0
        if clamped:
            t = 0.0
        asym = 2.0 * float(ndtr(math.sqrt(d - 1) / 2.0 * math.exp(-d * theta / (d - 1)))) - 1.0
        out.append(CutoffPoint(d=d, n=n, theta=theta, cutoff=t_c, t=t,
                               tv_exact=tv_exact(d, n, t), tv_asymptotic=asym,
                               clamped=clamped))
    return out


def _binomial_log_weights(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    return (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def survival_from_stationary(d: int, n: int, t_grid, eps: float = 1e-12) -> SurvivalCurve:
    """Exact tail of the optimal coupling time, X_0 = 0 and Y_0 uniform.

    The initial unmatched count is Binomial(n, 1 - 1/d); the tail is the
    corresponding mixture of the exact per-level tails.
    """
    table = survival_table(d, n, t_grid, eps)
    logw = _binomial_log_weights(n, 1.0 - 1.0 / d)
    value = np.exp(logw) @ table.values
    np.clip(value, 0.0, 1.0, out=value)
    zeros = np.zeros_like(table.t_grid)
    return SurvivalCurve(t_grid=table.t_grid, value=value, half_width_95=zeros,
                         half_width_3sigma=zeros, replicates=0, kind="exact", eps=eps)


def limit_tail(n: int, t):
    """d -> infinity limit: both the TV distance and the optimal-coupling
    tail converge to 1 - (1 - e^{-t})^n."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise ValueError("t must be >= 0")
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
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    lim = limit_tail(n, t_grid)
    out = []
    for d in d_list:
        gap = np.abs(survival_from_stationary(d, n, t_grid, eps).value - lim)
        j = int(np.argmax(gap))
        out.append(GapEntry(d=d, sup_gap=float(gap[j]), argmax_t=float(t_grid[j])))
    return out


_EXACT_MEAN_LIMIT = 2000


def mean_tau_stationary(d: int, n: int, exact: bool | None = None):
    """E[coupling time] with Y_0 uniform: binomial mixture of per-level means.

    Exact rational for moderate n; for large n the binomial weights are
    computed in log space and the level means in float64 (the level
    recursion mixes only nonnegative terms, so it stays relatively
    accurate).  Returns a Fraction or a float accordingly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if exact is None:
        exact = n <= _EXACT_MEAN_LIMIT
    if exact:
        p_num, p_den = d - 1, d
        total = Fraction(0)
        w = Fraction(1, p_den**n)  # weight of m = 0
        for m in range(n + 1):
            if m > 0:
                w = w * (n - m + 1) * p_num / m
            total += w * expected_tau(d, m)
        return total
    levels = expected_tau_float(d, n)
    w = np.exp(_binomial_log_weights(n, 1.0 - 1.0 / d))
    return float(w @ levels)
