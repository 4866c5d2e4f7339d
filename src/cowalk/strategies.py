"""Coupling strategies for a pair of walks on the product of complete graphs.

A co-adapted strategy is realized by an (n*d) x (n*d) doubly-stochastic
control matrix Q: independent Poisson streams of rate 1/(d-1) propose joint
moves "coordinate i of X to value k, coordinate j of Y to value l", and the
proposal is accepted with probability q[(i,k),(j,l)].  Row/column sums equal
to one guarantee that each chain, viewed alone, is a correct simple random
walk.  For the built-in strategies the number of unmatched coordinates N is
itself a Markov chain; its jump rates (the "lumped" rates) are what the
analysis engine and simulator consume.  They are stated once, as integer
numerators over (d-1) of the -1 and -2 jump rates: ``death_chain``
tabulates them for levels 0..m_max as a ``DeathChain``, and every schedule,
rate table, kernel, transform and mean is read from that chain or from the
same per-level rule.

The optimal strategy runs in two modes, decided by ``regime``:

* C2 (paired mode): applied when N is even or N*(d-2) >= 2*(d-1).  Each
  unmatched coordinate of X pairs its matching move with a matching move of
  a uniformly-chosen other unmatched coordinate of Y (two matches at once),
  and otherwise moves synchronously with its own Y coordinate to a fresh
  value (one match).
* C3 (singles mode): applied when N is odd and N*(d-2) < 2*(d-1).  Every
  unmatched coordinate moves synchronously with its partner, so every move
  makes a single match at the maximal rate.

Matched coordinates always move synchronously and never unmatch.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .states import PairConfig

__all__ = [
    "Strategy",
    "Regime",
    "RateSchedule",
    "DeathChain",
    "death_chain",
    "regime",
    "paired_schedule",
    "singles_schedule",
    "optimal_rates",
    "rates_for",
    "rate_table",
    "build_q_matrix",
    "lump_rates",
]


class Strategy(str, enum.Enum):
    """Built-in coupling strategies, by their CLI/config names."""

    OPTIMAL = "optimal"
    INDEPENDENT = "independent"
    SYNCHRONOUS = "synchronous"
    PAIRWISE_CLASSIC = "pairwise-classic"


class Regime(enum.Enum):
    ABSORBED = "absorbed"
    C2 = "c2"
    C3 = "c3"


@dataclass(frozen=True)
class RateSchedule:
    """Jump rates of the unmatched count N from level m: lam(m, m+s).

    Rates are exact ``Fraction`` values when built from integer (m, d);
    ``lump_rates`` produces float-valued schedules from a float Q matrix.
    """

    down2: Fraction | float = Fraction(0)
    down1: Fraction | float = Fraction(0)
    up1: Fraction | float = Fraction(0)
    up2: Fraction | float = Fraction(0)

    def rate(self, s: int):
        try:
            return {-2: self.down2, -1: self.down1, 1: self.up1, 2: self.up2, 0: 0}[s]
        except KeyError:
            raise ValueError(f"jump size must be in -2..2, got {s}") from None

    @property
    def total(self):
        return self.down2 + self.down1 + self.up1 + self.up2

    def is_feasible(self, m: int, d: int) -> bool:
        """Membership in the constraint set: nonnegative rates with
        (d-1)*(lam(-1) + 2*lam(-2)) <= m*d and (d-1)*lam(-2) <= m."""
        if any(r < 0 for r in (self.down2, self.down1, self.up1, self.up2)):
            return False
        return (d - 1) * (self.down1 + 2 * self.down2) <= m * d and (d - 1) * self.down2 <= m

    def saturates_budget(self, m: int, d: int) -> bool:
        return (d - 1) * (self.down1 + 2 * self.down2) == m * d


def _check_level(m: int, d: int) -> None:
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")


def _singles_mode(m, d: int):
    """True where the optimal strategy runs in singles mode (C3) at level m:
    m odd and m(d-2) < 2(d-1), compared in integers.  ``m`` is an int or an
    integer array."""
    return (m % 2 == 1) & (m * (d - 2) < 2 * (d - 1))


def regime(m: int, d: int) -> Regime:
    """Mode of the optimal strategy at unmatched count m."""
    _check_level(m, d)
    if m == 0:
        return Regime.ABSORBED
    return Regime.C3 if _singles_mode(m, d) else Regime.C2


# (c1, c2): rates of the -1 and -2 jumps at level m, times (d-1); m is an int
# or an integer array.

def _paired(m, d: int):
    return m * (d - 2), m


def _singles(m, d: int):
    return m * d, 0


def _independent(m, d: int):
    return 2 * m, 0


def _schedule(c1: int, c2: int, d: int) -> RateSchedule:
    return RateSchedule(down2=Fraction(c2, d - 1), down1=Fraction(c1, d - 1))


def paired_schedule(m: int, d: int) -> RateSchedule:
    """Paired-mode (C2) rates at level m: the pair-capped, budget-saturating
    vertex of the rate polytope."""
    return _schedule(*_paired(m, d), d)


def singles_schedule(m: int, d: int) -> RateSchedule:
    """Singles-mode (C3) rates at level m: the budget-saturating vertex with
    no -2 jumps."""
    return _schedule(*_singles(m, d), d)


@dataclass(frozen=True, eq=False)
class DeathChain:
    """Pure-death chain of the unmatched count N under a built-in strategy.

    ``c1[m]`` and ``c2[m]`` (int64, m = 0..m_max) are the rates of the -1 and
    -2 jumps at level m times (d-1).  The float rates are the correctly
    rounded values of the rationals c/(d-1).
    """

    d: int
    m_max: int
    c1: np.ndarray
    c2: np.ndarray

    @property
    def down1(self) -> np.ndarray:
        return self.c1 / (self.d - 1)

    @property
    def down2(self) -> np.ndarray:
        return self.c2 / (self.d - 1)

    @property
    def exit_rate(self) -> np.ndarray:
        return (self.c1 + self.c2) / (self.d - 1)

    @property
    def lam_int(self) -> int:
        """Integer uniformization rate: the ceiling of the largest exit rate
        (at least 1)."""
        return max(1, -(-int((self.c1 + self.c2).max()) // (self.d - 1)))

    def numerators(self) -> tuple[list[int], list[int]]:
        """(c1, c2) as lists of Python ints, safe to multiply without bound."""
        return self.c1.tolist(), self.c2.tolist()


def _numerators(strategy: Strategy, m, d: int):
    """(c1, c2) of ``strategy`` at level(s) m, an int or an int64 array.

    Optimal: singles mode where ``_singles_mode`` holds, paired mode
    elsewhere.  Independent: unmatched coordinates of X and Y each jump alone
    at rate 1 and hit the other chain's current value with probability
    1/(d-1).  Synchronous: everything synchronized, the distance never
    changes.  Pairwise-classic: the d=2 recipe applied at any d -- paired
    mode at even m, independent behaviour at odd m.
    """
    # ``alone`` marks the levels that do not run in paired mode
    if strategy is Strategy.OPTIMAL:
        alone, other = _singles_mode(m, d), _singles(m, d)
    elif strategy is Strategy.PAIRWISE_CLASSIC:
        alone, other = m % 2 == 1, _independent(m, d)
    elif strategy is Strategy.INDEPENDENT:
        alone, other = True, _independent(m, d)
    else:
        alone, other = True, (0, 0)
    (p1, p2), (o1, o2) = _paired(m, d), other
    return p1 + alone * (o1 - p1), p2 + alone * (o2 - p2)


def death_chain(strategy: Strategy, d: int, m_max: int) -> DeathChain:
    """Death chain of ``strategy`` on levels 0..m_max."""
    _check_level(m_max, d)
    c1, c2 = _numerators(Strategy(strategy), np.arange(m_max + 1, dtype=np.int64), d)
    return DeathChain(d, m_max, c1, c2)


def rates_for(strategy: Strategy, m: int, d: int) -> RateSchedule:
    """Lumped rates of ``strategy`` at level m (exact rationals): one level
    of ``death_chain``."""
    _check_level(m, d)
    return _schedule(*_numerators(Strategy(strategy), m, d), d)


def optimal_rates(m: int, d: int) -> RateSchedule:
    _check_level(m, d)
    return _schedule(*_numerators(Strategy.OPTIMAL, m, d), d)


def rate_table(strategy: Strategy, d: int, m_max: int):
    """Float arrays (total exit rate, P(jump is -2)) for levels 0..m_max.

    This is the simulator-boundary conversion of the exact schedules: each
    entry is the correctly rounded value of its rational.
    """
    chain = death_chain(strategy, d, m_max)
    exits = chain.c1 + chain.c2
    p2 = np.divide(chain.c2, exits, out=np.zeros(m_max + 1), where=exits > 0)
    return chain.exit_rate, p2


def _row(i: int, k: int, d: int) -> int:
    return i * d + k


def build_q_matrix(strategy: Strategy, cfg: PairConfig, d: int) -> np.ndarray:
    """Doubly-stochastic control matrix realizing ``strategy`` at ``cfg``.

    Rows/columns are indexed by (coordinate, value) as i*d + k.  Matched
    coordinates always get the identity block (no match is ever broken).
    Rows (i, x(i)) and columns (j, y(j)) left free by the paired mode are
    completed with no-op mass q[(i, x(i)), (j, y(j))] = 1/(N-1), j != i,
    which changes neither chain and keeps the matrix doubly stochastic.

    Only optimal, synchronous, and even-count pairwise-classic have a cheap
    full-matrix realization; the independent baseline is simulated directly.
    """
    strategy = Strategy(strategy)
    x, y = cfg.x, cfg.y
    n = cfg.n
    if (x >= d).any() or (y >= d).any():
        raise ValueError("state values exceed d")
    q = np.zeros((n * d, n * d))
    for i in cfg.matched:
        for k in range(d):
            q[_row(i, k, d), _row(i, k, d)] = 1.0

    unmatched = cfg.unmatched
    m = len(unmatched)
    if m == 0:
        return q

    if strategy is Strategy.SYNCHRONOUS:
        # common-increment pairing: X(i) -> k goes with Y(i) -> k + (y-x)
        for i in unmatched:
            delta = int(y[i] - x[i]) % d
            for k in range(d):
                q[_row(i, k, d), _row(i, (k + delta) % d, d)] = 1.0
        return q

    if strategy is Strategy.OPTIMAL:
        if regime(m, d) is Regime.C3:
            for i in unmatched:
                for k in range(d):
                    q[_row(i, k, d), _row(i, k, d)] = 1.0
            return q
        if m < 2:
            raise ValueError("paired mode needs at least 2 unmatched coordinates")
        w = 1.0 / (m - 1)
        for i in unmatched:
            for j in unmatched:
                if i == j:
                    continue
                # matching move of X(i) paired with matching move of Y(j)
                q[_row(i, int(y[i]), d), _row(j, int(x[j]), d)] = w
                # no-op completion row/column
                q[_row(i, int(x[i]), d), _row(j, int(y[j]), d)] = w
            for k in range(d):
                if k != x[i] and k != y[i]:
                    q[_row(i, k, d), _row(i, k, d)] = 1.0
        return q

    if strategy is Strategy.PAIRWISE_CLASSIC:
        if m % 2 == 1:
            raise ValueError(
                "pairwise-classic has a full-matrix realization only at even "
                "unmatched counts (odd counts behave independently)"
            )
        for a in range(0, m, 2):
            i, j = int(unmatched[a]), int(unmatched[a + 1])
            for u, v in ((i, j), (j, i)):
                q[_row(u, int(y[u]), d), _row(v, int(x[v]), d)] = 1.0
                q[_row(u, int(x[u]), d), _row(v, int(y[v]), d)] = 1.0
        for i in unmatched:
            for k in range(d):
                if k != x[i] and k != y[i]:
                    q[_row(i, k, d), _row(i, k, d)] = 1.0
        return q

    raise ValueError(f"no full-matrix realization for strategy {strategy!r}")


def lump_rates(q: np.ndarray, cfg: PairConfig, d: int) -> RateSchedule:
    """Rates of the unmatched count induced by a control matrix.

    Every transition ((i,k),(j,l)) fires at rate q/(d-1); it sets X(i)=k and
    Y(j)=l (both on coordinate i when i == j) and is classified by its effect
    on the number of unmatched coordinates.
    """
    x, y = cfg.x, cfg.y
    n = cfg.n
    if q.shape != (n * d, n * d):
        raise ValueError(f"expected matrix shape {(n * d, n * d)}, got {q.shape}")
    m0 = cfg.n_unmatched
    lam = {s: 0.0 for s in (-2, -1, 0, 1, 2)}
    rows, cols = np.nonzero(q)
    for r, c in zip(rows, cols):
        i, k = divmod(int(r), d)
        j, l = divmod(int(c), d)
        x2 = x.copy()
        y2 = y.copy()
        x2[i] = k
        y2[j] = l
        delta = int(np.count_nonzero(x2 != y2)) - m0
        lam[delta] += q[r, c] / (d - 1)
    return RateSchedule(down2=lam[-2], down1=lam[-1], up1=lam[1], up2=lam[2])
