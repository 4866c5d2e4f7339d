"""Exact and certified-accuracy analysis of the optimal coupling's tail.

Under the optimal strategy the unmatched count N is an autonomous pure-death
chain: level m exits at total rate m in paired mode (jumps of -1 and -2) and
at rate m*d/(d-1) in singles mode (jumps of -1 only).  Everything here is
derived from that chain:

* ``survival_table`` computes tail probabilities P(tau > t | N_0 = m) by
  uniformization -- the death chain is embedded in a discrete chain
  subordinated to a Poisson process of rate Lam >= all exit rates, and the
  Poisson mixture is truncated with a certified error bound.  Uniformization
  is used instead of exponential-sum formulas because exit rates repeat
  (d = 2 has rate 2 at both levels 1 and 2), and instead of ODE integration
  because the truncation error is an explicit bound, not an estimate.
* ``laplace_V`` / ``laplace_R`` build the Laplace transforms of the tail and
  of its level differences as exact rational functions, via the level
  recursions of the death chain run on integer numerator polynomials over
  the known product of the levels' linear factors.
* ``expected_tau`` is the transform at 0, evaluated as an exact rational.
* ``r_diff_table`` tabulates the level differences r(m,t) = v(m,t)-v(m-1,t)
  and the second differences r(m-1,t)-r(m,t), attaching a certified sign to
  every cell.  A value whose magnitude exceeds twice the uniformization
  bound is signed directly; smaller values are signed by an exact
  integer-arithmetic partial sum of the uniformization series (see
  ``_certify_exact``), and exactly-vanishing cells are recognized from the
  rational transform.  Cells are never signed from numerical noise.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .ratfun import RationalFn
from .strategies import DeathChain, Strategy, death_chain

__all__ = [
    "TailTable",
    "SignCert",
    "RDiffTable",
    "survival_table",
    "survival_exact",
    "laplace_V",
    "laplace_R",
    "expected_tau",
    "expected_tau_float",
    "mk_bound_mean",
    "check_total_monotone",
    "r_diff_table",
]


# ---------------------------------------------------------------------------
# uniformization


@dataclass(frozen=True)
class TailTable:
    """Tail probabilities v(m, t) on a grid, with certified error bound eps."""

    d: int
    m_max: int
    t_grid: np.ndarray
    values: np.ndarray  # shape (m_max + 1, len(t_grid))
    eps: float
    uniformization_rate: int
    n_terms: int
    method: str = "uniformization"

    def column(self, m: int) -> np.ndarray:
        return self.values[m]


def _poisson_weights(lam_t: np.ndarray, k_max: int) -> np.ndarray:
    """Matrix w[k, j] of Poisson(lam_t[j]) probabilities, k = 0..k_max."""
    k = np.arange(k_max + 1)
    w = np.zeros((k_max + 1, len(lam_t)))
    pos = lam_t > 0
    if pos.any():
        lt = lam_t[pos]
        logw = -lt[None, :] + k[:, None] * np.log(lt[None, :]) - gammaln(k + 1)[:, None]
        w[:, pos] = np.exp(logw)
    w[0, ~pos] = 1.0
    return w


def _poisson_tail_upper(lam_t: float, k: int) -> float:
    """Upper bound on P(Poisson(lam_t) > k); needs lam_t < k + 2."""
    if lam_t == 0.0:
        return 0.0
    rho = lam_t / (k + 2)
    if rho >= 0.9:
        return 1.0
    logw = -lam_t + (k + 1) * math.log(lam_t) - math.lgamma(k + 2)
    return math.exp(logw) / (1.0 - rho) * (1.0 + 1e-9)


def _truncation_order(lam_t_max: float, eps: float) -> int:
    """Smallest k in the search schedule with certified Poisson tail mass
    P(Poisson(lam_t_max) > k) below eps/2.

    The bound is ``_poisson_tail_upper``, a ratio bound on the tail itself:
    1 - sum(weights) would cancel to rounding noise once lam_t is large.
    """
    k_max = max(20, int(lam_t_max + 12 * math.sqrt(lam_t_max + 1) + 20))
    while _poisson_tail_upper(lam_t_max, k_max) > eps / 2:
        k_max = int(k_max * 1.3) + 16
    return k_max


def survival_table(d: int, m_max: int, t_grid, eps: float = 1e-12) -> TailTable:
    """Tail probabilities P(tau > t | N_0 = m) for m = 0..m_max, |err| <= eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if (t_grid < 0).any():
        raise ValueError("t_grid must be nonnegative")
    chain = death_chain(Strategy.OPTIMAL, d, m_max)
    lam = float(chain.lam_int)
    k_max = _truncation_order(lam * t_grid.max(), eps)
    w = _poisson_weights(lam * t_grid, k_max)

    p1 = chain.down1 / lam
    p2 = chain.down2 / lam
    stay = 1.0 - p1 - p2
    stay[0] = 1.0

    # s[m] = P(not yet absorbed after k steps of the uniformized chain)
    s = np.ones(m_max + 1)
    s[0] = 0.0
    out = np.zeros((m_max + 1, len(t_grid)))
    comp = np.zeros_like(out)  # Kahan compensation
    for k in range(k_max + 1):
        term = s[:, None] * w[k][None, :]
        y = term - comp
        acc = out + y
        comp = (acc - out) - y
        out = acc
        nxt = stay * s
        nxt[1:] += p1[1:] * s[:-1]
        nxt[2:] += p2[2:] * s[:-2]
        nxt[0] = 0.0
        s = nxt
    out[:, t_grid == 0.0] = 1.0
    out[0, :] = 0.0
    np.clip(out, 0.0, 1.0, out=out)
    return TailTable(d=d, m_max=m_max, t_grid=t_grid, values=out, eps=eps,
                     uniformization_rate=chain.lam_int, n_terms=k_max)


def survival_exact(d: int, m: int, t_grid, eps: float = 1e-12) -> np.ndarray:
    """One tail column: P(tau > t | N_0 = m) on the grid, |err| <= eps."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return survival_table(d, max(m, 1), t_grid, eps).column(m)


# ---------------------------------------------------------------------------
# Laplace transforms and expected coupling times


# Level m's generator equation, multiplied by (d-1), reads
#   l_m V(m) = (d-1) + c1 V(m-1) + c2 V(m-2),   l_m = (c1 + c2) + (d-1) alpha,
# with (c1, c2) the death chain's numerators at level m.  Every V(m) therefore
# lives over the known denominator D_m = l_1 ... l_m, with an integer numerator
# polynomial
#   P_m = (d-1) D_{m-1} + c1 P_{m-1} + c2 l_{m-1} P_{m-2}.
# R(m) = V(m) - V(m-1) has numerator N_m = P_m - l_m P_{m-1} over D_m, and
# R(m-1) - R(m) has numerator l_m N_{m-1} - N_m over D_m, so a zero test is
# an emptiness test and no polynomial gcd is ever needed.  Polynomials here
# are lists of Python ints, ascending powers, without trailing zeros.


def _ipoly_add(p: list[int], q: list[int]) -> list[int]:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _ipoly_scale(p: list[int], c: int) -> list[int]:
    return [c * v for v in p] if c else []


def _ipoly_mul_linear(p: list[int], a: int, b: int) -> list[int]:
    """p * (a + b*alpha), for b != 0."""
    if not p:
        return []
    out = [a * p[0]]
    out += [a * p[i] + b * p[i - 1] for i in range(1, len(p))]
    out.append(b * p[-1])
    return out


def _ipoly_div_linear(p: list[int], a: int, b: int) -> list[int] | None:
    """p / (a + b*alpha) for a primitive factor (gcd(a, b) = 1, b > 0), or
    None if the factor does not divide p.  By Gauss's lemma an exact quotient
    has integer coefficients, so an inexact step already proves the factor's
    root is not a root of p."""
    quo = [0] * (len(p) - 1)
    carry = p[-1]
    for i in range(len(p) - 2, -1, -1):
        quo[i], rest = divmod(carry, b)
        if rest:
            return None
        carry = p[i] - a * quo[i]
    return None if carry else quo


@dataclass(frozen=True)
class _TransformLevels:
    """Numerators of V(0..m_max) over D_m = prod_{j<=m} (s[j] + q*alpha)."""

    q: int
    s: list[int]  # s[j] = c1 + c2 at level j; s[0] unused
    P: list[list[int]]

    def r_numerator(self, m: int) -> list[int]:
        """N_m = P_m - l_m P_{m-1}, the numerator of R(m) over D_m."""
        return _ipoly_add(self.P[m], _ipoly_mul_linear(self.P[m - 1], -self.s[m], -self.q))

    def second_diff_numerator(self, m: int) -> list[int]:
        """l_m N_{m-1} - N_m, the numerator of R(m-1) - R(m) over D_m."""
        return _ipoly_add(_ipoly_mul_linear(self.r_numerator(m - 1), self.s[m], self.q),
                          _ipoly_scale(self.r_numerator(m), -1))

    def canonical(self, num: list[int], m: int) -> RationalFn:
        """num / D_m in canonical form: cancel each factor l_j whose root
        num shares (a repeated factor is tested once per occurrence), so
        what remains is coprime without a gcd."""
        if not num:
            return RationalFn(0)
        den = [1]  # D_m = den * prod(g), with den built from primitive factors
        for j in range(1, m + 1):
            g = math.gcd(self.s[j], self.q)
            a, b = self.s[j] // g, self.q // g
            quo = _ipoly_div_linear(num, a, b)
            if quo is None:
                den = _ipoly_mul_linear(den, a, b)
            else:
                num = quo
            den = _ipoly_scale(den, g)
        return RationalFn._from_coprime(num, den)


def _transform_levels(d: int, m_max: int) -> _TransformLevels:
    c1, c2 = death_chain(Strategy.OPTIMAL, d, m_max).numerators()
    q = d - 1
    s = [0]
    P: list[list[int]] = [[]]
    D = [1]  # D_{m-1}
    for m in range(1, m_max + 1):
        num = _ipoly_add(_ipoly_scale(D, q), _ipoly_scale(P[m - 1], c1[m]))
        if c2[m]:  # never at m = 1, which is always a singles level
            num = _ipoly_add(num, _ipoly_scale(_ipoly_mul_linear(P[m - 2], s[m - 1], q), c2[m]))
        s.append(c1[m] + c2[m])
        P.append(num)
        D = _ipoly_mul_linear(D, s[m], q)
    return _TransformLevels(q=q, s=s, P=P)


def laplace_V(d: int, m: int) -> RationalFn:
    """Laplace transform of t -> P(tau > t | N_0 = m), exact in alpha."""
    if m < 0:
        raise ValueError("m must be >= 0")
    levels = _transform_levels(d, m)
    return levels.canonical(levels.P[m], m)


def laplace_R(d: int, m: int) -> RationalFn:
    """Laplace transform of the level difference r(m, t) = v(m,t) - v(m-1,t)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    levels = _transform_levels(d, m)
    return levels.canonical(levels.r_numerator(m), m)


def _mean_levels(d: int, m_max: int, zero):
    """Yield E[tau | N_0 = m] for m = 0..m_max, in the number type of
    ``zero`` (``Fraction(0)`` for exact rationals, ``0.0`` for float64).

    Level m's generator equation at alpha = 0, times (d-1):
    (c1 + c2) E_m = (d-1) + c1 E_{m-1} + c2 E_{m-2}.  Only nonnegative terms
    are mixed, so the float recursion is relatively accurate.  The
    numerators are read through memoryviews, which yield Python ints
    without holding a list of them.
    """
    chain = death_chain(Strategy.OPTIMAL, d, m_max)
    e1 = e2 = zero
    yield zero
    for c1, c2 in zip(memoryview(chain.c1)[1:], memoryview(chain.c2)[1:]):
        e1, e2 = ((d - 1) + c1 * e1 + c2 * e2) / (c1 + c2), e1
        yield e1


def expected_tau(d: int, m: int) -> Fraction:
    """E[tau | N_0 = m] as an exact rational (the transform at alpha = 0)."""
    for e in _mean_levels(d, m, Fraction(0)):
        pass
    return e


def expected_tau_float(d: int, m_max: int) -> np.ndarray:
    """E[tau | N_0 = m] for m = 0..m_max in float64, for the deep levels
    (m up to ~10^6) where exact rationals are pointless."""
    return np.fromiter(_mean_levels(d, m_max, 0.0), dtype=float, count=m_max + 1)


def mk_bound_mean(k: int, m: int) -> Fraction:
    """Mean absorption time sum(1/(k*i), i=1..m) of the comparison process
    that only takes -k steps, at rate equal to its current level."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    return sum((Fraction(1, k * i) for i in range(1, m + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# total-monotonicity spot checks


@dataclass(frozen=True)
class TotalMonotoneReport:
    order: int
    alpha_grid: tuple[Fraction, ...]
    passed: bool
    failures: tuple[tuple[int, Fraction], ...]  # (k, alpha) with wrong sign


def check_total_monotone(f: RationalFn, order: int, alpha_grid) -> TotalMonotoneReport:
    """Check (-1)^k f^(k)(alpha) >= 0 for k <= order on a grid, exactly.

    A necessary condition for f to be the transform of a nonnegative
    measure; evaluation is exact rational arithmetic, so a reported failure
    is a real failure.
    """
    grid = tuple(Fraction(a) for a in alpha_grid)
    failures = []
    g = f
    for k in range(order + 1):
        for a in grid:
            if (-1) ** k * g(a) < 0:
                failures.append((k, a))
        g = g.derivative()
    return TotalMonotoneReport(order=order, alpha_grid=grid,
                               passed=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# signed difference tables


class SignCert(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"
    UNDETERMINED = "undetermined"


_SHIFT = 128  # fixed-point bits for exact-integer term evaluation


def _exact_step_diffs(chain: DeathChain, k_max: int):
    """Integer-exact per-step absorption differences of the uniformized chain.

    Yields, for k = 0..k_max, the integers (scaled by denom**k, where
    denom = (d-1) * lam_int):
    first[m-1]  ~ a_k(m-1) - a_k(m)            (m = 1..m_max)
    second[m-2] ~ first(m-1) - first(m)        (m = 2..m_max)
    where a_k(m) is the probability of absorption within k steps from m.
    Every quantity is exact, so signs are decisive.
    """
    m_max = chain.m_max
    dd = (chain.d - 1) * chain.lam_int
    c1, c2 = chain.numerators()
    stay = [dd - c1[m] - c2[m] for m in range(m_max + 1)]
    stay[0] = dd
    a = [1] + [0] * m_max  # absorption indicators, scaled by denom**0
    for k in range(k_max + 1):
        first = [a[m - 1] - a[m] for m in range(1, m_max + 1)]
        second = [first[i] - first[i + 1] for i in range(len(first) - 1)]
        yield k, first, second
        nxt = [0] * (m_max + 1)
        nxt[0] = dd * a[0]
        for m in range(1, m_max + 1):
            nxt[m] = stay[m] * a[m] + c1[m] * a[m - 1] + (c2[m] * a[m - 2] if m >= 2 else 0)
        a = nxt


def _term_bounds(num: int, scale: int) -> tuple[float, float]:
    """Lower/upper float bounds on num/scale (|num/scale| <= 1)."""
    if num == 0:
        return 0.0, 0.0
    q = (num << _SHIFT) // scale  # floor: q/2^128 <= num/scale < (q+1)/2^128
    lo = math.ldexp(float(q), -_SHIFT)
    hi = math.ldexp(float(q + 1), -_SHIFT)
    return lo, hi


def _certify_exact(chain: DeathChain, cells, t_grid):
    """Sign cells of the first and second differences by exact partial sums.

    cells: list of (kind, i, t_index), kind 0 for row i of the first
    differences (level m = i + 1) and 1 for row i of the second (m = i + 2).
    For each cell the uniformization series  sum_k w_k(t) * q_k  is split
    into an exactly-evaluated head (q_k are ratios of exact integers, bounded
    outward to 2^-128) plus a Poisson tail bounded by |q_k| <= 1.  One
    recursion serves both kinds; each cell sums to its own order.  Returns
    {cell: (lower, upper)} interval bounds.
    """
    if not cells:
        return {}
    lam_int = chain.lam_int
    lam = float(lam_int)
    k_of_t = {j: math.ceil(3.0 * lam * t_grid[j]) + 40 for _, _, j in cells}
    k_need = max(k_of_t.values())
    lo = {cell: 0.0 for cell in cells}
    hi = {cell: 0.0 for cell in cells}
    mag = {cell: 0.0 for cell in cells}  # sum of w * |term| bounds
    w_cache = {}
    for j in k_of_t:
        w_cache[j] = _poisson_weights(np.array([lam * t_grid[j]]), k_of_t[j])[:, 0]
    scale = 1
    for k, *vecs in _exact_step_diffs(chain, k_need):
        for cell in cells:
            kind, i, j = cell
            if k > k_of_t[j]:
                continue
            tlo, thi = _term_bounds(vecs[kind][i], scale)
            w = w_cache[j][k]
            lo[cell] += w * tlo
            hi[cell] += w * thi
            mag[cell] += w * max(thi, -tlo)
        scale *= (chain.d - 1) * lam_int
    out = {}
    for cell in cells:
        j = cell[2]
        tail = _poisson_tail_upper(lam * t_grid[j], k_of_t[j])
        # sound while k_of_t < 5e4: all rounding is below k(ln k + 1)2^-53 * mag
        slack = 1e-10 * mag[cell] + 5e-324 * k_of_t[j]
        out[cell] = (lo[cell] - slack - tail, hi[cell] + slack + tail)
    return out


@dataclass(frozen=True)
class RDiffTable:
    """Signed tables of r(m,t) and r(m-1,t) - r(m,t) for the optimal coupling.

    ``r_values[m-1]`` is the row for level m (m = 1..m_max); ``diff_values``
    starts at m = 2.  The parallel ``*_certs`` arrays carry one SignCert
    code per cell.
    """

    d: int
    m_max: int
    t_grid: np.ndarray
    eps: float
    r_values: np.ndarray
    r_certs: np.ndarray
    diff_values: np.ndarray
    diff_certs: np.ndarray
    r_rows: np.ndarray = field(default=None)
    diff_rows: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "r_rows", np.arange(1, self.m_max + 1))
        object.__setattr__(self, "diff_rows", np.arange(2, self.m_max + 1))

    def undetermined_cells(self):
        cells = [("r", int(self.r_rows[i]), float(self.t_grid[j]))
                 for i, j in zip(*np.nonzero(self.r_certs == SignCert.UNDETERMINED.value))]
        cells += [("diff", int(self.diff_rows[i]), float(self.t_grid[j]))
                  for i, j in zip(*np.nonzero(self.diff_certs == SignCert.UNDETERMINED.value))]
        return cells


def _sign_cells(tables, chain, t_grid, eps):
    """Sign each (values, zero_rows) table: the 2*eps rule, then exact
    certificates for the small cells of all tables from one recursion."""
    all_certs = []
    pending = []
    for kind, (values, zero_rows) in enumerate(tables):
        certs = np.full(values.shape, SignCert.UNDETERMINED.value, dtype=object)
        certs[values > 2 * eps] = SignCert.POSITIVE.value
        certs[values < -2 * eps] = SignCert.NEGATIVE.value
        certs[zero_rows] = SignCert.ZERO.value
        # t = 0 columns: v(m, 0) = 1 for all m >= 1, differences vanish exactly
        certs[(certs == SignCert.UNDETERMINED.value) & (t_grid == 0)] = SignCert.ZERO.value
        pending += [(kind, i, j)
                    for i, j in zip(*np.nonzero(certs == SignCert.UNDETERMINED.value))]
        all_certs.append(certs)
    for (kind, i, j), (lo, hi) in _certify_exact(chain, pending, t_grid).items():
        if lo > 0:
            all_certs[kind][i, j] = SignCert.POSITIVE.value
        elif hi < 0:
            all_certs[kind][i, j] = SignCert.NEGATIVE.value
    return all_certs


def r_diff_table(d: int, m_max: int, t_grid, eps: float = 1e-12) -> RDiffTable:
    """Tabulate level differences of the tail with certified signs.

    r(m, t) = v(m,t) - v(m-1,t) for m = 1..m_max, and the second difference
    r(m-1,t) - r(m,t) for m = 2..m_max.  Sign certification: |value| > 2*eps
    signs a cell outright; otherwise an exact integer partial sum of the
    uniformization series decides it; cells whose rational transform is the
    zero function are certified ZERO.  Remaining cells stay UNDETERMINED.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    table = survival_table(d, m_max, t_grid, eps)
    t_grid = table.t_grid
    v = table.values
    r = v[1:] - v[:-1]
    diff = r[:-1] - r[1:]
    chain = death_chain(Strategy.OPTIMAL, d, m_max)

    levels = _transform_levels(d, m_max)
    r_zero_rows = [m - 1 for m in range(1, m_max + 1) if not levels.r_numerator(m)]
    diff_zero_rows = [m - 2 for m in range(2, m_max + 1)
                      if not levels.second_diff_numerator(m)]
    r_certs, diff_certs = _sign_cells([(r, r_zero_rows), (diff, diff_zero_rows)],
                                      chain, t_grid, eps)
    return RDiffTable(d=d, m_max=m_max, t_grid=t_grid, eps=eps,
                      r_values=r, r_certs=r_certs,
                      diff_values=diff, diff_certs=diff_certs)
