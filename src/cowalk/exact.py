"""Exact and certified-accuracy analysis of the optimal coupling's tail.

Under the optimal strategy the unmatched count N is an autonomous pure-death
chain: level m exits at total rate m in paired mode (jumps of -1 and -2) and
at rate m*d/(d-1) in singles mode (jumps of -1 only).  Everything here is
derived from that chain:

* ``survival_table`` computes tail probabilities P(tau > t | N_0 = m) by
  uniformization -- the death chain is embedded in a discrete chain
  subordinated to a Poisson process of rate Lam >= all exit rates, and the
  Poisson mixture is truncated with a certified error bound.  Uniformization
  is used instead of exponential-sum formulas because those sums cancel
  catastrophically in floats (their coefficients reach about 1e17 at d = 2
  and 1e27 at d = 10 by m = 120), and instead of ODE integration because the
  truncation error is an explicit bound, not an estimate.
* ``_spectral_levels`` is the one exact form of the tails: every v(m, t) is
  a finite sum sum_k A e^{-kt/(d-1)} with integer coefficients over one
  denominator, built from the level equation of the death chain.
* ``laplace_V`` / ``laplace_R`` read the Laplace transforms of the tail and
  of its level differences off that table, term by term, as exact rational
  functions in canonical form (``_transform``).
* ``expected_tau`` is the transform at 0, evaluated as an exact rational.
* ``_level_signs`` signs the level differences r(m,t) = v(m,t)-v(m-1,t) and
  the second differences r(m-1,t)-r(m,t) by rows off the same table, for
  all t > 0 at once: an r row by the chain's monotonicity, a second
  difference by Descartes' rule on (0, 1) in x = e^{-t/(d-1)} or as
  UNDETERMINED (no cell is signed from noise); ``r_diff_table`` adds floats.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, cycle

import numpy as np

from .ratfun import Poly, RationalFn
from .strategies import DeathChain, Strategy, _check_level, _count, _numerators, death_chain

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
    "r_diff_table",
]

_BLOCK = 1 << 21  # most Poisson weights in a column block of the tail series
_MAX_TERMS = 1 << 20  # longest series of ``survival_table``: Lam * t up to 795,861


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


def _check_eps(eps: float) -> float:
    """eps, refused unless positive and finite (before any work)."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    return eps


def _truncation_order(lam_t_max: float, eps: float) -> int:
    """Smallest k in the search schedule with certified Poisson tail mass
    P(Poisson(lam_t_max) > k) below eps/2.

    The bound is ``_poisson_tail_upper``, a ratio bound on the tail itself:
    1 - sum(weights) would cancel to rounding noise once lam_t is large.
    """
    _check_eps(eps)
    k_max = max(20, int(lam_t_max + 12 * math.sqrt(lam_t_max + 1) + 20))
    while _poisson_tail_upper(lam_t_max, k_max) > eps / 2:
        k_max = int(k_max * 1.3) + 16
    return k_max


def _steps(stay, p1, p2):
    """Yield s_0, s_1, ... (not to be modified): s_k[m] is the chance that
    the uniformized chain from level m is not absorbed after k steps, each
    step going m -> m-1, m-2, m with chances p1[m], p2[m], stay[m].  Level
    0 absorbs (stay[0] = 1), so s_k[0] stays at its start, 0, with no store."""
    s = np.ones_like(stay)
    s[0] = 0
    while True:
        yield s
        nxt = stay * s
        nxt[1:] += p1[1:] * s[:-1]
        nxt[2:] += p2[2:] * s[:-2]
        s = nxt


def _push(stay, p1, p2, law):
    """Yield law and its pushes by 1, 2, ... steps of ``_steps``' chain.

    The pushes alternate between two buffers (slices taken once), so a
    yielded array is not to be modified and is overwritten by the next
    step: read it before asking for another.  Each step rounds as
    ``stay * law``, then ``+= p1[1:] * law[1:]`` on [:-1] and ``+= p2[2:]
    * law[2:]`` on [:-2]."""
    tmp = np.empty(len(law) - 1)
    p1, p2, tmp2 = p1[1:], p2[2:], tmp[:-1]
    bufs = [(b, b[1:], b[2:], b[:-1], b[:-2]) for b in np.empty((2, len(law)))]
    src, src1, src2 = law, law[1:], law[2:]
    yield law
    for nxt, nxt1, nxt2, head1, head2 in cycle(bufs):
        np.multiply(stay, src, out=nxt)
        head1 += np.multiply(p1, src1, out=tmp)
        head2 += np.multiply(p2, src2, out=tmp2)
        yield nxt
        src, src1, src2 = nxt, nxt1, nxt2


def _time_grid(t_grid) -> np.ndarray:
    """t_grid as a 1-d float array, refused unless a scalar or 1-d, nonempty,
    finite and >= 0."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.ndim > 1:
        raise ValueError(f"t_grid must be one-dimensional, got shape {t_grid.shape}")
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    if (t_grid < 0).any():
        raise ValueError("t_grid must be nonnegative")
    return t_grid


def _column_blocks(lam_t: np.ndarray, k_max: int) -> list[np.ndarray]:
    """lam_t in blocks of at most about ``_BLOCK`` Poisson weights to order
    k_max and of 2 or more columns unless lam_t has one (numpy normalises
    each by the same sequential sum, so no bit changes)."""
    return np.array_split(lam_t, -(-len(lam_t) // max(4, _BLOCK // (k_max + 1))))


def _start_law_tail(d: int, start: np.ndarray, t_grid, eps: float):
    """(t_grid, P(N_t > 0)) of the optimal chain from N_0 ~ start by adaptive
    uniformization (van Moorsel & Sanders 1994).  Per segment: drop top levels
    (eps/64 in all), ``_push`` at the rate Lam of the rest up to max(ln 2,
    256/Lam), sum one Poisson series.  Steps are L1 non-expansive, so errors add.

    The segment's Poisson weights are built in ``_column_blocks``, the
    block that ends at the segment's end first: its last column weights the
    pushed laws (``_pushed_sums``).  Each grid point's compensated sum over
    the survival masses (``_kahan_columns``) then runs once per segment, in
    step order, a block at a time, so memory stays O(n + _BLOCK + k_s) for a
    segment of k_s steps however many points it holds."""
    t_grid = _time_grid(t_grid)
    times, at = np.unique(t_grid, return_inverse=True)
    values = np.zeros(len(times))  # 0 once no live level is kept
    law, t0, j, trunc, drop = start, 0.0, 0, eps, eps / 64
    while j < len(times) and len(law) > 1:
        top = len(law) - 1 - int(np.searchsorted(np.cumsum(law[:0:-1]), drop / 2, "right"))
        drop -= law[top + 1:].sum()
        chain = death_chain(Strategy.OPTIMAL, d, top)
        lam = float(chain.lam_int)
        t1 = t0 + max(math.log(2), 256 / lam)
        j1 = int(np.searchsorted(times, t1, "right"))
        t1 = times[j1 - 1] if j1 > j else t1  # no point in reach: end between points
        trunc, share = (0.0, trunc) if j1 == len(times) else (trunc / 2, trunc / 2)
        k_max = _truncation_order(lam * (t1 - t0), share)
        lam_t = lam * (np.append(times[j:j1], t1) - t0)
        *heads, last = _column_blocks(lam_t, k_max)
        w = _poisson_weights(last, k_max)
        p1, p2 = chain.down1 / lam, chain.down2 / lam
        masses, law = _pushed_sums(1.0 - p1 - p2, p1, p2, law[:len(p1)], w[:, -1])
        for block in heads:
            values[j:j + len(block)] = _kahan_columns(
                masses[:, None] * _poisson_weights(block, k_max))
            j += len(block)
        values[j:j1] = _kahan_columns(masses[:, None] * w[:, :-1])
        t0, j = t1, j1
    return t_grid, np.clip(values, 0.0, 1.0)[at]


_PUSH_TILE = 1 << 20  # bytes of pushed laws that ``_pushed_sums`` folds at once


def _pushed_sums(stay, p1, p2, law, weights):
    """(masses, end): the survival mass law_k[1:].sum() of each ``_push``
    step k = 0..len(weights)-1, and the sum of weights[k] * law_k in step
    order from 0.

    The steps are copied into the rows of a tile of at most ``_PUSH_TILE``
    bytes, and each full tile is folded at once: the row sums are the
    pairwise sums of the 1-d laws, the rows are scaled by their weights in
    one multiply, and one axis-0 reduction whose row 0 is the running end
    adds them to it row by row.  So every bit is that of a step-by-step loop."""
    rows = max(1, _PUSH_TILE // (8 * len(law)))
    tile, end = np.empty((rows + 1, len(law))), np.zeros(len(law))  # tile row 0: end
    masses = np.empty(len(weights))
    for k, pk in zip(range(len(weights)), _push(stay, p1, p2, law)):
        r = k % rows + 1
        tile[r] = pk
        if r == rows or k == len(weights) - 1:
            tile[0] = end
            masses[k + 1 - r:k + 1] = tile[1:r + 1, 1:].sum(axis=1)
            tile[1:r + 1] *= weights[k + 1 - r:k + 1, None]
            np.add.reduce(tile[:r + 1], axis=0, out=end)
    return masses, end


def _kahan(rows, zero):
    """Compensated sum (Kahan 1965) of rows, in order, from zero."""
    acc = comp = zero
    for x in rows:
        y = x - comp
        total = acc + y
        comp = (total - acc) - y
        acc = total
    return acc


def _kahan_columns(terms: np.ndarray):
    """``_kahan`` of each column of terms.  Python floats round as numpy's
    elementwise operations do, so both routes give the same bits: a column
    at a time in Python floats, or from 24 columns on, where numpy's
    per-call cost is the smaller, a row at a time in numpy."""
    if terms.shape[1] >= 24:
        return _kahan(terms, np.zeros(terms.shape[1]))
    return [_kahan(column, 0.0) for column in terms.T.tolist()]


def survival_table(d: int, m_max: int, t_grid, eps: float = 1e-12) -> TailTable:
    """Tail probabilities P(tau > t | N_0 = m) for m = 0..m_max, |err| <= eps:
    sum_k w_k(t) s_k over the survival vectors of ``_steps``, in
    ``_column_blocks`` of the grid."""
    t_grid = _time_grid(t_grid)
    chain = death_chain(Strategy.OPTIMAL, d, m_max)
    lam = float(chain.lam_int)
    k_max = _truncation_order(lam * t_grid.max(), eps)
    if k_max > _MAX_TERMS:  # before any allocation
        raise ValueError(f"the tail series needs {k_max} terms, over 2^20: lower t or m_max")
    p1, p2 = chain.down1 / lam, chain.down2 / lam
    blocks = []
    for lam_t in _column_blocks(lam * t_grid, k_max):
        w = _poisson_weights(lam_t, k_max)  # zipped first: no step past k_max is drawn
        terms = (np.multiply.outer(s, w_k) for w_k, s in zip(w, _steps(1.0 - p1 - p2, p1, p2)))
        blocks.append(_kahan(terms, np.zeros((chain.m_max + 1, len(lam_t)))))
    return TailTable(d=chain.d, m_max=chain.m_max, t_grid=t_grid,
                     values=np.clip(np.hstack(blocks), 0.0, 1.0),
                     eps=eps, uniformization_rate=chain.lam_int, n_terms=k_max)


def survival_exact(d: int, m: int, t_grid, eps: float = 1e-12) -> np.ndarray:
    """One tail column: P(tau > t | N_0 = m) on the grid, |err| <= eps: row m
    of ``survival_table(d, m, ...)``, whose level 0 is an ordinary level
    (its row is all zeros)."""
    return survival_table(d, m, t_grid, eps).values[m]


# ---------------------------------------------------------------------------
# the exact spectral table, its Laplace transforms and expected coupling times


# Level m's generator equation times q = d-1, q v_m' = -s_m v_m + c1 v_{m-1}
# + c2 v_{m-2} with v_m(0) = 1 and s_m = c1 + c2, makes v_m a sum of terms
# A e^{-kt/q}: a forcing term a e^{-kt/q} adds A = a/(s_m - k), and key s_m
# takes A = 1 - (the other A's).  No built-in chain forces a level at its own
# rate s_m (that needs t e^{-kt/q} terms): optimal at d >= 3 and independent
# have distinct rates, synchronous no forcing; optimal at d = 2 shares rate 2j
# between odd level j, which reads only lower levels, and level 2j, which reads
# only even ones (c1 = 0); pairwise-classic at even d >= 4 shares it between
# level 2j, j odd, whose own key has A = 0, and level j(d-1).


def _combine(*parts):
    """(den, {k: A}) of sum c * v over parts (c, (den_v, terms_v)), over the
    lcm of the denominators of the parts with c != 0; zero keys dropped."""
    parts = [part for part in parts if part[0]]
    den = math.lcm(*(part[1][0] for part in parts))
    out = {}
    for c, (den_v, terms) in parts:
        f = c * (den // den_v)
        for k, a in terms.items():
            out[k] = out.get(k, 0) + f * a
    return den, {k: a for k, a in out.items() if a}


def _spectral_levels(chain: DeathChain) -> list[tuple[int, dict[int, int]]]:
    """(den, {k: A}) for levels m = 0..m_max in lowest terms:
    v(m, t) = sum_k A e^{-kt/(d-1)} / den exactly.  Raises ValueError where
    a level is forced at its own exit rate."""
    c1, c2 = chain.c1.tolist(), chain.c2.tolist()  # Python ints: products never wrap
    levels = [(1, {})]  # v(0, t) = 0
    for m in range(1, chain.m_max + 1):
        s = c1[m] + c2[m]
        den, force = _combine((c1[m], levels[m - 1]), (c2[m], levels[max(m - 2, 0)]))
        if s in force:
            raise ValueError(f"level {m} is forced at its own exit rate {s}/{chain.d - 1}")
        scale = math.lcm(*(s - k for k in force))
        terms = {k: a * (scale // (s - k)) for k, a in force.items()}
        den *= scale
        terms[s] = den - sum(terms.values())
        g = math.gcd(den, *terms.values())
        levels.append((den // g, {k: a // g for k, a in terms.items() if a}))
    return levels


_MAX_TRANSFORM_LEVEL = 500  # deepest level of laplace_V and laplace_R


def _optimal_levels(d: int, m: int, top: int = _MAX_TRANSFORM_LEVEL):
    """The optimal chain's ``_spectral_levels`` to level m; refused above level top."""
    if m > top:
        raise ValueError(f"exact transforms run to level at most {top}; level {m} was asked")
    return _spectral_levels(death_chain(Strategy.OPTIMAL, d, m))


def _transform(level, q: int) -> RationalFn:
    """Laplace transform in alpha of a ``_spectral_levels`` entry (den, {k: A}):
    sum_k A q/(k + q alpha), over den.  No key has A = 0, so each is a simple
    pole with a nonzero residue: num/prod is coprime as it stands."""
    den, terms = level
    num, prod = [0], [1]  # the sum so far is num/prod, ascending coefficients
    for k, a in terms.items():  # num <- num (k + q alpha) + A q prod
        num = [k * x + q * y + a * q * z for x, y, z in zip(num + [0], [0] + num, prod + [0])]
        prod = [k * x + q * y for x, y in zip(prod + [0], [0] + prod)]
    return RationalFn._from_coprime(Poly(num), Poly(prod) * den)


def laplace_V(d: int, m: int) -> RationalFn:
    """Laplace transform of t -> P(tau > t | N_0 = m), exact in alpha."""
    m, d = _check_level(m, d)
    return _transform(_optimal_levels(d, m)[m], d - 1)


def laplace_R(d: int, m: int) -> RationalFn:
    """Laplace transform of the level difference r(m, t) = v(m,t) - v(m-1,t)."""
    m, d = _check_level(_count("m", m, 1), d)
    v = _optimal_levels(d, m)
    return _transform(_combine((1, v[m]), (-1, v[m - 1])), d - 1)


_MAX_MEAN_LEVEL = 2000  # deepest level of the exact means


def _mean_levels(d: int, m_max: int, factor=None):
    """Yield (G_m, H_m, s_m) for m = 0..m_max: E[tau | N_0 = m] = G_m / H_m
    exactly, with G_m = F_m N_m and H_m = F_m D_m over the running
    denominator D_m = s_1 ... s_m, s_m = c1 + c2, and the running weight
    F_m = f_1 ... f_m of the factors f_m = factor(m) (1 if factor is None).

    Level m's generator equation at alpha = 0, times (d-1), is
    s_m E_m = (d-1) + c1 E_{m-1} + c2 E_{m-2}; times D_{m-1} it gives
    N_m = (d-1) D_{m-1} + c1 N_{m-1} + c2 s_{m-1} N_{m-2} in integers, and
    times F_m, G_m = f_m [(d-1) H_{m-1} + c1 G_{m-1} + c2 s_{m-1} f_{m-1}
    G_{m-2}] with H_m = f_m s_m H_{m-1}.  No level builds or reduces a
    fraction, and every product takes one factor of a few digits.  The numerators are
    read through memoryviews, which yield Python ints without holding a
    list of them.  Levels above 2000 are refused with ValueError before any
    work: the digits grow with m, so the cost grows about as m^2.
    """
    m_max, d = _check_level(m_max, d)  # Python ints, so no product below wraps
    if m_max > _MAX_MEAN_LEVEL:
        raise ValueError(f"exact means run to level at most {_MAX_MEAN_LEVEL};"
                         f" level {m_max} was asked")
    chain = death_chain(Strategy.OPTIMAL, d, m_max)
    g1, g2, h, s1, f1 = 0, 0, 1, 0, 1  # G_{m-1}, G_{m-2}, H_{m-1}, s_{m-1}, f_{m-1}
    yield g1, h, s1
    for m, (c1, c2) in enumerate(zip(memoryview(chain.c1)[1:], memoryview(chain.c2)[1:]), 1):
        s = c1 + c2
        f = 1 if factor is None else factor(m)
        g1, g2 = (d - 1) * h + c1 * g1 + c2 * s1 * f1 * g2, g1
        if f != 1:  # a big product: ``expected_tau``'s levels skip it
            g1 *= f
        h, s1, f1 = h * (f * s), s, f
        yield g1, h, s


def expected_tau(d: int, m: int) -> Fraction:
    """E[tau | N_0 = m] as an exact rational (the transform at alpha = 0):
    ``_mean_levels``' integer recursion, reduced once at the end."""
    for num, den, _ in _mean_levels(d, m):
        pass
    return Fraction(num, den)


_MAX_FLOAT_LEVELS = 10**7  # deepest level of expected_tau_float
_RATE_TILE = 1 << 17  # bytes of one float rate table in a tile of ``_float_levels``' steps


def _float_levels(d: int, lo: int, hi: int) -> np.ndarray:
    """Levels lo..hi (0 <= lo <= hi) of ``expected_tau_float(d, hi)``, bit
    for bit.  Step j runs level k*size + 1 + j of every block k at once
    (rates clamped at level hi) on contiguous (3, blocks) rows: P from
    (E_{s-1}, E_{s-2}) = (0, 0) with the (d-1) term, H from (1, 0) and G
    from (0, 1) without it.  The rates of a tile of steps (``_RATE_TILE``
    bytes a table) come from one ``_numerators`` call, cast to float once,
    which is exact below 2^53; each step then runs in place on its rows.
    Only the blocks that hold lo..hi keep their rows; the chaining pass
    reads the others' last two steps alone."""
    hi, d = _check_level(hi, d)
    if hi > _MAX_FLOAT_LEVELS:
        raise ValueError(f"the float level means run from level 0 to at most"
                         f" {_MAX_FLOAT_LEVELS}; level {hi} was asked")
    size = math.isqrt(hi) + 1  # levels per block, 2 or more once hi >= 1
    lanes = np.arange(1, hi + 1, size)  # each block's first level
    blocks, first = lanes.size, max(lo - 1, 0) // size  # first: the first block kept
    kept = np.empty((size, 3, blocks - first))
    prev, cur, nxt = np.zeros((3, blocks)), np.zeros((3, blocks)), np.empty((3, blocks))
    cur[1] = prev[2] = 1.0
    tmp = np.empty((3, blocks))
    tile = max(1, _RATE_TILE // (8 * max(blocks, 1)))  # steps whose rates are built at once
    for j0 in range(0, size, tile):
        steps = np.arange(j0, min(j0 + tile, size))[:, None]
        c1, c2 = _numerators(Strategy.OPTIMAL, np.minimum(lanes + steps, hi), d)
        s, c1, c2 = (c1 + c2).astype(float), c1.astype(float), c2.astype(float)  # exact
        for j in range(len(s)):
            np.multiply(c1[j], cur, out=nxt)
            nxt += np.multiply(c2[j], prev, out=tmp)
            nxt[0] += d - 1
            nxt /= s[j]
            kept[j0 + j] = nxt[:, first:]
            prev, cur, nxt = cur, nxt, prev
    x, y = np.zeros(blocks), np.zeros(blocks)  # level 1 never reads E_{-1}
    ends = zip(prev.T[:-1].tolist(), cur.T[:-1].tolist())  # (P, H, G) at the last two steps
    for k, ((p2, h2, g2), (p1, h1, g1)) in enumerate(ends):
        x[k + 1] = p1 + x[k] * h1 + y[k] * g1
        y[k + 1] = p2 + x[k] * h2 + y[k] * g2
    # level first*size, then the kept blocks, each level (P + x H) + y G
    # rounded in that order
    levels = np.zeros((blocks - first) * size + 1)
    out = levels[1:].reshape(-1, size)
    p, h, g = kept.transpose(1, 2, 0)
    np.multiply(h, x[first:, None], out=out)
    out += p
    g *= y[first:, None]
    out += g
    return levels[lo - first * size:hi - first * size + 1]


def expected_tau_float(d: int, m_max: int) -> np.ndarray:
    """E[tau | N_0 = m] for m = 0..m_max in float64, for the deep levels
    (m_max up to 10^7) where exact rationals are pointless.

    The recursion of ``_mean_levels`` is a blocked scan (Blelloch 1990):
    levels 1..m_max are cut into about sqrt(m_max) blocks of about
    sqrt(m_max) levels, ``_float_levels`` steps all blocks at once, one
    scalar pass chains the block ends, and each level is P + x H + y G with
    (x, y) = (E_{s-1}, E_{s-2}) at its block's start s.  Every coefficient,
    start and partial value is nonnegative, so nothing cancels (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3): a step rounds
    each term at most 4 times and a block's combination 3 times, so level m
    is within gamma_{4m + 3 sqrt(m) + 3} ~ (4m + 3 sqrt(m)) 2^-53 relatively
    of its exact value, the bound of the sequential loop (4m) plus the
    block joins (while the rates' numerators stay below 2^53).  Raises
    ValueError beyond level 10^7 or where m_max * d reaches 2^53, before any
    work.  At that cap, d = 5 takes 0.6-0.9 s and peaks at 337 MB in a fresh
    process (Xeon, 2 cores): the output and the scan's rows, 4 floats a
    level; the rates are built a tile of steps at a time, in 128 kB tables.
    """
    return _float_levels(d, 0, m_max)


def mk_bound_mean(k: int, m: int) -> Fraction:
    """Mean absorption time sum(1/(k*i), i=1..m) of the comparison process
    that only takes -k steps, at rate equal to its current level."""
    k = _count("k", k, 1)
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    m = _count("m", m, 0)
    return sum((Fraction(1, k * i) for i in range(1, m + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# signed difference tables


class SignCert(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"
    UNDETERMINED = "undetermined"


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


def _no_root_in_unit_interval(p: Poly) -> bool:
    """True if Descartes' rule shows that p (nonzero) has no root in (0, 1):
    (1+y)^n p(1/(1+y)) has no coefficient sign change (Collins & Akritas
    1976).  Its coefficients are p's, reversed, after n passes that each
    replace a prefix (n+1 long, one shorter per pass) by its running sums.
    Running sums keep a one-signed sequence one-signed, so the passes stop
    as soon as the coefficients are one-signed."""
    c = list(p.coeffs)
    for size in range(len(c), 0, -1):
        if min(c) >= 0 or max(c) <= 0:
            return True
        c[:size] = accumulate(c[:size])
    return False


def _row_sign(terms: dict[int, int]) -> str:
    """SignCert value of f(t) = sum_k A e^{-kt/q} at every t > 0 (any q > 0):
    in x = e^{-t/q}, f = x^low P(x) with P = sum A x^(k-low), which keeps the
    sign of the lowest key's A (its sign as t -> inf) if P has no root on (0, 1)."""
    if not terms:
        return SignCert.ZERO.value
    low = min(terms)
    if not _no_root_in_unit_interval(Poly([terms.get(k, 0) for k in range(low, max(terms) + 1)])):
        return SignCert.UNDETERMINED.value
    return SignCert.POSITIVE.value if terms[low] > 0 else SignCert.NEGATIVE.value


_MAX_SIGN_LEVEL = 200  # deepest level of the row signs, so of r_diff_table and verify_argmax_grid


def _level_signs(d: int, m_max: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(d, r, diff): d as its count rule returns it, and the SignCert values
    of r(m,t) = v(m,t) - v(m-1,t), m = 1..m_max, and r(m-1,t) - r(m,t),
    m >= 2, a row per level in two columns, t = 0 and every t > 0: exact,
    with no grid and no eps.  At t = 0 every tail is 1{m >= 1}.  For t > 0
    an r row, a Poisson mixture of the s_k[m] - s_k[m-1] >= 0 of ``_steps``
    (a monotone kernel, Keilson & Kester 1977), is ZERO if its coefficients
    vanish and POSITIVE otherwise; a second difference has its ``_row_sign``.
    m_max above 200 is refused before any work; (4, 200) takes about 0.5 s."""
    if _count("m_max", m_max, 1) > _MAX_SIGN_LEVEL:
        raise ValueError(f"sign tables run to level at most {_MAX_SIGN_LEVEL};"
                         f" level {m_max} was asked")
    chain = death_chain(Strategy.OPTIMAL, d, m_max)
    _check_monotone(chain)
    v = _spectral_levels(chain)
    pos, zero = SignCert.POSITIVE.value, SignCert.ZERO.value
    r = [[pos if m == 1 else zero, pos if _combine((1, v[m]), (-1, v[m - 1]))[1] else zero]
         for m in range(1, chain.m_max + 1)]
    diff = [[pos if m == 2 else zero,
             _row_sign(_combine((2, v[m - 1]), (-1, v[m - 2]), (-1, v[m]))[1])]
            for m in range(2, chain.m_max + 1)]
    return chain.d, *(np.array(rows, dtype=object).reshape(-1, 2) for rows in (r, diff))


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
        """("diff", m, t) per UNDETERMINED cell; an r cell is never one."""
        return [("diff", int(i) + 2, float(self.t_grid[j]))
                for i, j in zip(*np.nonzero(self.diff_certs == SignCert.UNDETERMINED.value))]


def r_diff_table(d: int, m_max: int, t_grid, eps: float = 1e-12) -> RDiffTable:
    """Level differences of the tail, valued by ``survival_table`` and signed,
    exactly for all t, by the t = 0 or the t > 0 column of ``_level_signs``.
    m_max above 200 is refused before any work, the grid and eps before the
    row signs, and a grid past the 2^20 series terms of the table after them.
    """
    t_grid, eps = _time_grid(t_grid), _check_eps(eps)
    d, r_signs, diff_signs = _level_signs(d, m_max)
    table = survival_table(d, m_max, t_grid, eps)
    r = table.values[1:] - table.values[:-1]
    col = (t_grid > 0).astype(int)
    return RDiffTable(d=d, m_max=table.m_max, t_grid=t_grid, eps=eps, r_values=r,
                      r_certs=r_signs[:, col], diff_values=r[:-1] - r[1:],
                      diff_certs=diff_signs[:, col])
