"""Coupling strategies for a pair of walks on the product of complete graphs.

A co-adapted strategy is defined by a doubly-stochastic control matrix Q
over (coordinate, value) pairs, but for the built-in strategies the number
of unmatched coordinates N is itself a Markov chain, a pure-death chain,
and the library runs on N alone; the tests check at every state pair of
small (d, n) that Q lumps to it.  Its jump rates (the "lumped" rates) are
what the analysis engine and simulator consume.  They are stated once, as
integer numerators over (d-1) of the -1 and -2 jump rates: ``death_chain``
tabulates them for levels 0..m_max as a ``DeathChain``, and every schedule,
rate table, kernel, transform and mean is read from that chain or from the
same per-level rule.

The optimal strategy runs in two modes, decided by ``_singles_mode``:

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

__all__ = [
    "Strategy",
    "RateSchedule",
    "DeathChain",
    "death_chain",
    "rate_table",
]


class Strategy(str, enum.Enum):
    """Built-in coupling strategies, by their CLI/config names."""

    OPTIMAL = "optimal"
    INDEPENDENT = "independent"
    SYNCHRONOUS = "synchronous"
    PAIRWISE_CLASSIC = "pairwise-classic"


@dataclass(frozen=True)
class RateSchedule:
    """Jump rates of the unmatched count N from level m: lam(m, m+s).

    Rates are exact ``Fraction`` values at the LP vertices of
    ``optimality._lp_vertices``; a schedule may hold floats too, as
    ``optimality.sample_feasible_schedules`` draws them.
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


def _count(name: str, value, low: int) -> int:
    """A count (d, n, m, ...) as a Python int: an int or numpy integer, not a bool, >= low."""
    if type(value) is not int:  # the fast path: nearly every call passes a plain int
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _check_level(m: int, d: int) -> tuple[int, int]:
    m, d = _count("m", m, 0), _count("d", d, 2)  # Python ints: the product cannot wrap
    if max(m, 1) * d >= 2**53:  # the rate numerators are int64 and exact as floats
        raise ValueError(f"max(m, 1) * d must be below 2^53, got m = {m}, d = {d}")
    return m, d


def _singles_mode(m, d: int):
    """True where the optimal strategy runs in singles mode (C3) at level m:
    m odd and m(d-2) < 2(d-1), compared in integers.  ``m`` is an int or an
    integer array."""
    return (m % 2 == 1) & (m * (d - 2) < 2 * (d - 1))


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
    def lam_int(self) -> int:
        """Integer uniformization rate: the ceiling of the largest exit rate
        (at least 1)."""
        return max(1, -(-int((self.c1 + self.c2).max()) // (self.d - 1)))


def _numerators(strategy: Strategy, m, d: int):
    """(c1, c2) of ``strategy`` at levels m, an int64 array.

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
    # each table is its mode's coefficient scaled by m in place, so besides
    # m only the two tables and the mode mask span the level range
    alone = np.broadcast_to(alone, m.shape)
    c1, c2 = (np.where(alone, o, p) for o, p in zip(other, _paired(d)))
    c1 *= m
    c2 *= m
    return c1, c2


def death_chain(strategy: Strategy, d: int, m_max: int) -> DeathChain:
    """Death chain of ``strategy`` on levels 0..m_max."""
    m_max, d = _check_level(m_max, d)
    c1, c2 = _numerators(Strategy(strategy), np.arange(m_max + 1, dtype=np.int64), d)
    return DeathChain(d, m_max, c1, c2)


def rate_table(strategy: Strategy, d: int, m_max: int):
    """Float arrays (total exit rate, P(jump is -2)) for levels 0..m_max.

    This is the simulator-boundary conversion of the exact schedules: each
    entry is the correctly rounded value of its rational.
    """
    chain = death_chain(strategy, d, m_max)
    exits = chain.c1 + chain.c2
    p2 = np.divide(chain.c2, exits, out=np.zeros(m_max + 1), where=exits > 0)
    return exits / (chain.d - 1), p2
