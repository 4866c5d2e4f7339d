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
* ``r_diff_table`` stacks the level differences r(m,t) = v(m,t)-v(m-1,t)
  and the second differences r(m-1,t)-r(m,t) into one table and signs every
  cell: directly where the magnitude exceeds twice the uniformization bound,
  ZERO where the rational transform vanishes, and otherwise by an exact
  integer partial sum of the series (``_certify_exact``), which runs the
  float tails' uniformization step ``_steps`` on integers.  Cells are never
  signed from numerical noise.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def _poisson_weights(lam_t: np.ndarray, k_max: int) -> np.ndarray:
    """Matrix w[k, j] of Poisson(lam_t[j]) probabilities, k = 0..k_max,
    normalised to sum to one over 0..k_max.

    Each column runs the ratio recurrence w[k+1]/w[k] = lam_t/(k+1) outward
    from its mode (Fox & Glynn, CACM 1988) as a cumulative product, so a
    weight |k - mode| steps out is off by about 2|k - mode| 2^-53
    relatively; no large logarithms cancel.  Normalising over the
    truncated support scales every weight by 1/(1 - tau), tau the Poisson
    mass beyond k_max.  A series sum_k w_k a_k with a_k in [0, 1] then
    differs from the untruncated one by a head excess in [0, tau] minus a
    tail in [0, tau], so by at most tau: the truncation share eps/2 that
    ``_truncation_order`` certifies covers both.
    """
    k = np.arange(k_max + 1.0)[:, None]
    mode = np.floor(lam_t)
    up = np.cumprod(np.where(k > mode, lam_t / np.maximum(k, 1.0), 1.0), axis=0)
    down = np.where(k < mode, (k + 1.0) / np.maximum(lam_t, 1.0), 1.0)
    w = np.cumprod(down[::-1], axis=0)[::-1]
    w *= up
    w /= w.sum(axis=0)
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


def _steps(stay, p1, p2):
    """Yield s_0, s_1, ... (not to be modified): s_k[m] is the chance that
    the uniformized chain from level m is not absorbed after k steps, each
    step going m -> m-1, m-2, m with chances p1[m], p2[m], stay[m].  Given
    numpy object arrays of the integer numerators over (d-1)*lam (stay =
    (d-1)*lam - c1 - c2, p1 = c1, p2 = c2), s_k is exact times ((d-1)*lam)^k.
    """
    s = np.ones_like(stay)
    s[0] = 0
    while True:
        yield s
        nxt = stay * s
        nxt[1:] += p1[1:] * s[:-1]
        nxt[2:] += p2[2:] * s[:-2]
        nxt[0] = 0
        s = nxt


def _time_grid(t_grid) -> np.ndarray:
    """t_grid as a 1-d float array, refused unless nonempty, finite and >= 0."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    if (t_grid < 0).any():
        raise ValueError("t_grid must be nonnegative")
    return t_grid


def _tail_sums(d: int, m_max: int, t_grid, eps: float, start=None):
    """The uniformization series sum_k w_k(t) a_k of the optimal death
    chain on levels 0..m_max, Kahan-summed and clipped to [0, 1], with
    |err| <= eps.  a_k is the survival vector s_k of ``_steps`` (one row
    per level) or, given a start law, the scalar start @ s_k (one row):
    projecting before the Poisson sum costs O(m_max + T) per step, not
    O(m_max T).  Returns (t_grid, values, chain, k_max).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    t_grid = _time_grid(t_grid)
    chain = death_chain(Strategy.OPTIMAL, d, m_max)
    lam = float(chain.lam_int)
    k_max = _truncation_order(lam * t_grid.max(), eps)
    w = _poisson_weights(lam * t_grid, k_max)

    p1, p2 = chain.down1 / lam, chain.down2 / lam
    out = np.zeros((m_max + 1, len(t_grid)) if start is None else len(t_grid))
    comp = np.zeros_like(out)  # Kahan compensation
    for k, s in zip(range(k_max + 1), _steps(1.0 - p1 - p2, p1, p2)):
        y = np.multiply.outer(s if start is None else start @ s, w[k]) - comp
        acc = out + y
        comp = (acc - out) - y
        out = acc
    np.clip(out, 0.0, 1.0, out=out)
    return t_grid, out, chain, k_max


def survival_table(d: int, m_max: int, t_grid, eps: float = 1e-12) -> TailTable:
    """Tail probabilities P(tau > t | N_0 = m) for m = 0..m_max, |err| <= eps."""
    t_grid, values, chain, k_max = _tail_sums(d, m_max, t_grid, eps)
    return TailTable(d=d, m_max=m_max, t_grid=t_grid, values=values, eps=eps,
                     uniformization_rate=chain.lam_int, n_terms=k_max)


def survival_exact(d: int, m: int, t_grid, eps: float = 1e-12) -> np.ndarray:
    """One tail column: P(tau > t | N_0 = m) on the grid, |err| <= eps."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return survival_table(d, max(m, 1), t_grid, eps).values[m]


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
    is a real failure.  With f = N/D, f^(k) = N_k / D^(k+1) where N_0 = N and
    N_{k+1} = N_k' D - (k+1) N_k D', so the denominator is never squared.
    """
    grid = tuple(Fraction(a) for a in alpha_grid)
    failures = []
    num, den, dden = f.num, f.den, f.den.derivative()
    for k in range(order + 1):
        for a in grid:
            at = den(a)
            if at == 0:
                raise ZeroDivisionError(f"pole at {a}")
            if (-1) ** k * num(a) / at ** (k + 1) < 0:
                failures.append((k, a))
        num = num.derivative() * den - (k + 1) * num * dden
    return TotalMonotoneReport(order=order, alpha_grid=grid,
                               passed=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# signed difference tables


class SignCert(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"
    UNDETERMINED = "undetermined"


_MAX_HEAD = 50_000  # longest head whose float rounding the slack covers


def _check_monotone(chain: DeathChain) -> None:
    """Refuse a chain whose uniformized kernel is not stochastically
    monotone.  For a death chain with steps -1, -2 that is exactly
    c1[m] + c2[m] >= c2[m+1] at every level m >= 1, and it makes every s_k
    of ``_steps`` nondecreasing in m, so level differences lie in [0, 1]."""
    c1, c2 = chain.c1, chain.c2
    bad = np.flatnonzero(c1[1:-1] + c2[1:-1] < c2[2:])
    if bad.size:
        raise ValueError(f"the uniformized chain is not stochastically monotone at level"
                         f" {bad[0] + 1}, so sign certificates do not apply")


def _certify_exact(chain: DeathChain, rows: np.ndarray, cols: np.ndarray, t_grid):
    """Arrays (lower, upper) bounding the (rows, cols) cells of the stacked
    table of ``r_diff_table``.  Each cell's uniformization series
    sum_k w_k(t) q_k is split into a head of ceil(3 lam t) + 40 terms and a
    Poisson tail bounded by |q_k| <= 1, which for a second difference holds
    because the chain is checked to be monotone.  A head term q_k is a
    difference of the exact vectors of ``_steps`` over ((d-1) lam)^k,
    rounded once to the nearest float (Python int / int is correctly
    rounded, so its sign is exact and its error relative)."""
    _check_monotone(chain)
    lam = float(chain.lam_int)
    head_of = np.ceil(3.0 * lam * t_grid).astype(np.int64) + 40
    heads = head_of[cols]
    if heads.max(initial=0) >= _MAX_HEAD:
        raise ValueError(f"a sign certificate at t = {t_grid[cols].max():g} needs {heads.max()}"
                         f" terms; its rounding bound holds below {_MAX_HEAD}")
    uniq, at = np.unique(cols, return_inverse=True)
    w = _poisson_weights(lam * t_grid[uniq], heads.max(initial=0))
    tail = np.array([_poisson_tail_upper(lam * t_grid[j], head_of[j]) for j in uniq])[at]
    val, mag = np.zeros((2, len(rows)))
    scale, dd = 1, (chain.d - 1) * chain.lam_int
    c1, c2 = chain.c1.astype(object), chain.c2.astype(object)
    for k, s in zip(range(len(w)), _steps(dd - c1 - c2, c1, c2)):
        live = np.flatnonzero(heads >= k)
        first = s[1:] - s[:-1]
        term = (np.concatenate([first, first[:-1] - first[1:]])[rows[live]] / scale).astype(float)
        wk = w[k, at[live]]
        val[live] += wk * term
        mag[live] += wk * np.abs(term)
        scale *= dd
    # sound while heads < _MAX_HEAD: a weight is off by at most
    # (2|k - mode| + len(w))2^-53 relatively (recurrence, then the column
    # sum that normalises it) plus the Poisson mass beyond len(w) - 1 >=
    # 3 lam t + 40 (below 1e-35), and each quotient, product and sum by
    # 2^-53, below 1e-10 * mag together; a weight past the float range
    # stays below 2^-1022, so underflow adds under 2.3e-308 to each of the
    # heads + 1 terms
    slack = 1e-10 * mag + 2.3e-308 * (heads + 1)
    return val - slack - tail, val + slack + tail


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

    def undetermined_cells(self):
        cells = [("r", int(i) + 1, float(self.t_grid[j]))
                 for i, j in zip(*np.nonzero(self.r_certs == SignCert.UNDETERMINED.value))]
        cells += [("diff", int(i) + 2, float(self.t_grid[j]))
                  for i, j in zip(*np.nonzero(self.diff_certs == SignCert.UNDETERMINED.value))]
        return cells


def r_diff_table(d: int, m_max: int, t_grid, eps: float = 1e-12) -> RDiffTable:
    """Tabulate level differences of the tail with certified signs.

    r(m, t) = v(m,t) - v(m-1,t) for m = 1..m_max, and the second difference
    r(m-1,t) - r(m,t) for m = 2..m_max, are signed as one stacked table:
    |value| > 2*eps signs a cell; rows with a zero rational transform and
    t = 0 columns are ZERO; ``_certify_exact`` may sign the rest, which stay
    UNDETERMINED otherwise.  Raises ValueError if a certificate would need
    a head of ``_MAX_HEAD`` terms or more, beyond its rounding bound.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    table = survival_table(d, m_max, t_grid, eps)
    t_grid = table.t_grid
    r = table.values[1:] - table.values[:-1]
    values = np.concatenate([r, r[:-1] - r[1:]])
    levels = _transform_levels(d, m_max)
    zero_rows = [m - 1 for m in range(1, m_max + 1) if not levels.r_numerator(m)]
    zero_rows += [m_max + m - 2 for m in range(2, m_max + 1)
                  if not levels.second_diff_numerator(m)]
    certs = np.full(values.shape, SignCert.UNDETERMINED.value, dtype=object)
    certs[values > 2 * eps] = SignCert.POSITIVE.value
    certs[values < -2 * eps] = SignCert.NEGATIVE.value
    certs[zero_rows] = SignCert.ZERO.value
    # t = 0 columns: v(m, 0) = 1 for all m >= 1, differences vanish exactly
    certs[(certs == SignCert.UNDETERMINED.value) & (t_grid == 0)] = SignCert.ZERO.value
    rows, cols = np.nonzero(certs == SignCert.UNDETERMINED.value)
    lo, hi = _certify_exact(death_chain(Strategy.OPTIMAL, d, m_max), rows, cols, t_grid)
    certs[rows[hi < 0], cols[hi < 0]] = SignCert.NEGATIVE.value
    certs[rows[lo > 0], cols[lo > 0]] = SignCert.POSITIVE.value
    return RDiffTable(d=d, m_max=m_max, t_grid=t_grid, eps=eps,
                      r_values=values[:m_max], r_certs=certs[:m_max],
                      diff_values=values[m_max:], diff_certs=certs[m_max:])
