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

    down2: Fraction | float = 0
    down1: Fraction | float = 0
    up1: Fraction | float = 0
    up2: Fraction | float = 0

    def is_feasible(self, m: int, d: int) -> bool:
        """Membership in the constraint set: nonnegative rates with
        (d-1)*(lam(-1) + 2*lam(-2)) <= m*d and (d-1)*lam(-2) <= m."""
        if self.down2 < 0 or self.down1 < 0 or self.up1 < 0 or self.up2 < 0:
            return False
        return (d - 1) * (self.down1 + 2 * self.down2) <= m * d and (d - 1) * self.down2 <= m


def _check_level(m: int, d: int) -> None:
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if max(m, 1) * d >= 2**53:  # the rate numerators are int64 and exact as floats
        raise ValueError(f"max(m, 1) * d must be below 2^53, got m = {m}, d = {d}")


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


# (c1, c2) per unmatched coordinate: the rates of the -1 and -2 jumps at
# level m are m times these, over (d-1).

def _paired(d: int):
    return d - 2, 1


def _singles(d: int):
    return d, 0


def _independent(d: int):
    return 2, 0


@dataclass(frozen=True, eq=False)
class DeathChain:
    """Pure-death chain of the unmatched count N under a built-in strategy.

    ``c1[m]`` and ``c2[m]`` (int64, m = 0..m_max) are the rates of the -1 and
    -2 jumps at level m times (d-1).  ``_check_level`` keeps them below
    2^53, so the float rates are the correctly rounded values of the
    rationals c/(d-1).
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
        alone, other = _singles_mode(m, d), _singles(d)
    elif strategy is Strategy.PAIRWISE_CLASSIC:
        alone, other = m % 2 == 1, _independent(d)
    elif strategy is Strategy.INDEPENDENT:
        alone, other = True, _independent(d)
    else:
        alone, other = True, (0, 0)
    if not isinstance(m, np.ndarray):
        k1, k2 = other if alone else _paired(d)
        return m * k1, m * k2
    # each table is its mode's coefficient scaled by m in place, so besides
    # m only the two tables and the mode mask span the level range
    alone = np.broadcast_to(alone, m.shape)
    c1, c2 = (np.where(alone, o, p) for o, p in zip(other, _paired(d)))
    c1 *= m
    c2 *= m
    return c1, c2


def death_chain(strategy: Strategy, d: int, m_max: int) -> DeathChain:
    """Death chain of ``strategy`` on levels 0..m_max."""
    _check_level(m_max, d)
    c1, c2 = _numerators(Strategy(strategy), np.arange(m_max + 1, dtype=np.int64), d)
    return DeathChain(d, m_max, c1, c2)


def rates_for(strategy: Strategy, m: int, d: int) -> RateSchedule:
    """Lumped rates of ``strategy`` at level m (exact rationals): one level
    of ``death_chain``."""
    _check_level(m, d)
    c1, c2 = _numerators(Strategy(strategy), m, d)
    return RateSchedule(down2=Fraction(c2, d - 1), down1=Fraction(c1, d - 1))


def rate_table(strategy: Strategy, d: int, m_max: int):
    """Float arrays (total exit rate, P(jump is -2)) for levels 0..m_max.

    This is the simulator-boundary conversion of the exact schedules: each
    entry is the correctly rounded value of its rational.
    """
    chain = death_chain(strategy, d, m_max)
    exits = chain.c1 + chain.c2
    p2 = np.divide(chain.c2, exits, out=np.zeros(m_max + 1), where=exits > 0)
    return chain.exit_rate, p2


def build_q_matrix(strategy: Strategy, cfg: PairConfig, d: int) -> np.ndarray:
    """Doubly-stochastic control matrix realizing ``strategy`` at ``cfg``.

    Rows/columns are indexed by (coordinate, value) as i*d + k.
    Synchronous moves every coordinate with the common increment y(i) - x(i)
    (0 where matched).  Otherwise the matrix starts from the identity, which
    keeps matched coordinates (no match is ever broken) and is the whole of
    singles mode.  Paired mode clears the (i, x(i)) and (i, y(i)) diagonals
    of each unmatched coordinate i and pairs the matching move of X(i) with
    that of Y(j), q[(i, y(i)), (j, x(j))] = w, completed by the no-op mass
    q[(i, x(i)), (j, y(j))] = w, which changes neither chain and keeps the
    matrix doubly stochastic.  The optimal strategy pairs i with every
    other unmatched j at w = 1/(N-1) (N >= 2 there, as N = 1 is singles
    mode); pairwise-classic pairs consecutive unmatched coordinates at w = 1.

    Only optimal, synchronous, and even-count pairwise-classic have a cheap
    full-matrix realization; the independent baseline is simulated directly.
    """
    strategy = Strategy(strategy)
    x, y = cfg.x, cfg.y
    if (x >= d).any() or (y >= d).any():
        raise ValueError("state values exceed d")
    if strategy is Strategy.SYNCHRONOUS:
        # common-increment pairing: X(i) -> k goes with Y(i) -> k + (y-x)
        rows = np.arange(cfg.n * d)
        i, k = np.divmod(rows, d)
        q = np.zeros((cfg.n * d, cfg.n * d))
        q[rows, i * d + (k + y[i] - x[i]) % d] = 1.0
        return q
    q = np.eye(cfg.n * d)
    u = cfg.unmatched
    m = len(u)
    if m == 0 or (strategy is Strategy.OPTIMAL and _singles_mode(m, d)):
        return q
    if strategy is Strategy.PAIRWISE_CLASSIC and m % 2 == 1:
        raise ValueError(
            "pairwise-classic has a full-matrix realization only at even "
            "unmatched counts (odd counts behave independently)"
        )
    if strategy is Strategy.OPTIMAL:
        i, j = np.repeat(u, m), np.tile(u, m)
        i, j, w = i[i != j], j[i != j], 1.0 / (m - 1)
    elif strategy is Strategy.PAIRWISE_CLASSIC:
        i, j, w = u, u.reshape(-1, 2)[:, ::-1].ravel(), 1.0
    else:
        raise ValueError(f"no full-matrix realization for strategy {strategy!r}")
    q[u * d + x[u], u * d + x[u]] = q[u * d + y[u], u * d + y[u]] = 0.0
    q[i * d + y[i], j * d + x[j]] = w  # matching move of X(i) paired with one of Y(j)
    q[i * d + x[i], j * d + y[j]] = w  # no-op completion row/column
    return q


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
