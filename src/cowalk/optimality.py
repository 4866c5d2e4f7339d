"""Pointwise certification that the built-in strategy solves the rate LP,
plus stochastic-dominance tests against the baseline strategies.

At unmatched count m the instantaneous optimization is a tiny linear
program: maximize lam(-2)*[r(m,t)+r(m-1,t)] + lam(-1)*r(m,t) over the
polytope {lam >= 0, (d-1)(lam(-1)+2 lam(-2)) <= m d, (d-1) lam(-2) <= m},
with any mass on upward jumps worthless whenever the tail is increasing in
m.  The polytope has at most four vertices; where r(m,t) >= 0 the
budget-saturating ones win, and they differ in objective by
m*(r(m-1,t) - r(m,t))/(d-1), so ``verify_argmax_grid`` reads the argmax
from the certified sign tables of the exact engine (``r_diff_table``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import RDiffTable, SignCert, r_diff_table, survival_exact, survival_table
from .simulate import SurvivalCurve, estimate_survival
from .strategies import (
    RateSchedule,
    Strategy,
    optimal_rates,
    paired_schedule,
    singles_schedule,
)

__all__ = [
    "BellmanCell",
    "ArgmaxGridReport",
    "DominanceReport",
    "bellman_gap",
    "sample_feasible_schedules",
    "verify_argmax_grid",
    "dominance_test",
]


def bellman_gap(d: int, m: int, t: float, schedule: RateSchedule,
                eps: float = 1e-12, tails: np.ndarray | None = None) -> float:
    """Generator gap of ``schedule`` against the built-in optimum at (m, t).

    Returns sum_s lam(s) [v(m+s,t) - v(m,t)] minus the same sum for the
    optimal rates; the optimal strategy's time derivative cancels its own
    generator term, so a nonpositive gap (within numerical slack) certifies
    that ``schedule`` couples no faster.  ``tails`` may supply precomputed
    v(0..m+2, t) to avoid recomputation.
    """
    if not schedule.is_feasible(m, d):
        raise ValueError("schedule outside the feasible rate set")
    if tails is None:
        tails = survival_table(d, m + 2, [t], eps).values[:, 0]
    v = lambda level: 0.0 if level <= 0 else float(tails[level])
    base = v(m)

    def generator(s: RateSchedule) -> float:
        return (float(s.down2) * (v(m - 2) - base)
                + float(s.down1) * (v(m - 1) - base)
                + float(s.up1) * (v(m + 1) - base)
                + float(s.up2) * (v(m + 2) - base))

    # maximizing the coupling rate = maximizing -A v, so compare negatives
    return (-generator(schedule)) - (-generator(optimal_rates(m, d)))


def sample_feasible_schedules(d: int, m: int, count: int, seed: int) -> list[RateSchedule]:
    """The four vertices of the down-rate polytope, then ``count`` random
    points of it by rejection from its bounding box."""
    rng = np.random.default_rng(seed)
    out = [RateSchedule(), paired_schedule(m, d), singles_schedule(m, d),
           RateSchedule(down2=Fraction(m, d - 1))]
    box1 = m * d / (d - 1)
    box2 = m / (d - 1)
    while len(out) < count + 4:
        lam1 = rng.uniform(0, box1)
        lam2 = rng.uniform(0, box2)
        if (d - 1) * (lam1 + 2 * lam2) <= m * d:
            out.append(RateSchedule(down2=lam2, down1=lam1))
    return out


@dataclass(frozen=True)
class BellmanCell:
    d: int
    m: int
    t: float
    status: str  # "match" | "tie" | "violation"
    equals_optimal: bool  # certified maximizer == built-in rates


@dataclass(frozen=True)
class ArgmaxGridReport:
    d: int
    m_max: int
    t_grid: np.ndarray
    eps: float
    cells: tuple[BellmanCell, ...]
    sign_table: RDiffTable  # the certified signs the cells were read from

    @property
    def n_violations(self) -> int:
        return sum(c.status == "violation" for c in self.cells)

    @property
    def n_ties(self) -> int:
        return sum(c.status == "tie" for c in self.cells)


_POSITIVE, _NEGATIVE = SignCert.POSITIVE.value, SignCert.NEGATIVE.value
_FLIP = {_POSITIVE: _NEGATIVE, _NEGATIVE: _POSITIVE}


def verify_argmax_grid(d: int, m_max: int, t_grid, eps: float = 1e-12) -> ArgmaxGridReport:
    """Check cell-by-cell that the rate LP selects the built-in rates.

    The certified signs of ``r_diff_table`` decide the LP: with r(m,t)
    positive or zero, the sign of r(m-1,t) - r(m,t) (of -r(1,t) at m = 1)
    picks the paired vertex if positive and the singles vertex if negative.
    A tie is a cell where a certificate the decision needs does not exclude
    0 (an exact zero or an undetermined sign), so nothing is shown to beat
    the built-in rates; it reports the paired vertex and is no violation.
    A violation is a cell whose certified vertex differs from the built-in
    rates.
    """
    signs = r_diff_table(d, m_max, t_grid, eps)
    cells = []
    for m in range(1, m_max + 1):
        opt = optimal_rates(m, d)
        vertex = {_POSITIVE: paired_schedule(m, d), _NEGATIVE: singles_schedule(m, d)}
        decide = ([_FLIP.get(c, c) for c in signs.r_certs[0]] if m == 1
                  else signs.diff_certs[m - 2])
        for j, t in enumerate(signs.t_grid):
            nonnegative = signs.r_certs[m - 1, j] in (_POSITIVE, SignCert.ZERO.value)
            sign = decide[j] if nonnegative else None
            chosen = vertex.get(sign, vertex[_POSITIVE])  # a tie reports the paired vertex
            status = ("match" if chosen == opt else "violation") if sign in vertex else "tie"
            cells.append(BellmanCell(d=d, m=m, t=float(t), status=status,
                                     equals_optimal=chosen == opt))
    return ArgmaxGridReport(d=d, m_max=m_max, t_grid=signs.t_grid, eps=eps,
                            cells=tuple(cells), sign_table=signs)


@dataclass(frozen=True)
class DominanceReport:
    """Pointwise comparison of a baseline's empirical tail against the
    optimal strategy's exact tail; ``max_deficit`` is the largest shortfall
    of the empirical tail's Wilson upper bound (z = 3) below exact - eps."""

    d: int
    m0: int
    competitor: str
    t_grid: np.ndarray
    empirical: SurvivalCurve
    exact_tail: np.ndarray
    eps: float
    violations: tuple[int, ...]  # grid indices where dominance failed
    max_deficit: float

    @property
    def passed(self) -> bool:
        return not self.violations


def dominance_test(d: int, m0: int, competitor: Strategy, t_grid,
                   replicates: int, seed: int, eps: float = 1e-12,
                   n_workers: int | None = None) -> DominanceReport:
    """Check that the Wilson score upper bound (z = 3) of the empirical
    P(tau_c > t) is >= the exact optimal tail - eps.  Unlike p + 3 Wald
    half-widths, the Wilson bound keeps a positive width at p = 0 and 1.

    A violation at any grid point is a build-failing finding: it would mean
    some baseline couples faster than the certified-optimal tail allows.
    """
    competitor = Strategy(competitor)
    if competitor is Strategy.OPTIMAL:
        raise ValueError("dominance_test compares baselines against optimal")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    emp = estimate_survival(competitor, d, m0, t_grid, replicates, seed,
                            n_workers=n_workers)
    exact = survival_exact(d, m0, t_grid, eps)
    p, n, z2 = emp.value, emp.replicates, 9.0
    upper = (p + z2 / (2 * n) + np.sqrt(z2 * (p * (1 - p) / n + z2 / (4 * n * n)))) / (1 + z2 / n)
    slack = upper - (exact - eps)
    violations = tuple(int(j) for j in np.nonzero(slack < 0)[0])
    return DominanceReport(d=d, m0=m0, competitor=competitor.value, t_grid=t_grid,
                           empirical=emp, exact_tail=exact, eps=eps,
                           violations=violations,
                           max_deficit=float(max(0.0, -slack.min())))
