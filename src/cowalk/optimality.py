"""Pointwise certification that the built-in strategy solves the rate LP,
plus stochastic-dominance tests against the baseline strategies.

At unmatched count m the instantaneous optimization is a tiny linear
program: maximize lam(-2)*[r(m,t)+r(m-1,t)] + lam(-1)*r(m,t) over the
polytope {lam >= 0, (d-1)(lam(-1)+2 lam(-2)) <= m d, (d-1) lam(-2) <= m},
with any mass on upward jumps worthless whenever the tail is increasing in
m.  The polytope has at most four vertices, so the LP is solved by direct
vertex enumeration; the budget-saturating vertices differ in objective by
m*(r(m-1,t) - r(m,t))/(d-1), which is why the sign tables from the exact
engine decide the argmax.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import survival_exact, survival_table
from .simulate import SurvivalCurve, estimate_survival
from .strategies import (
    RateSchedule,
    Strategy,
    optimal_rates,
    paired_schedule,
    singles_schedule,
)

__all__ = [
    "FeasibleMaxResult",
    "BellmanCell",
    "ArgmaxGridReport",
    "DominanceReport",
    "feasible_max",
    "bellman_gap",
    "sample_feasible_schedules",
    "verify_argmax_grid",
    "dominance_test",
]


@dataclass(frozen=True)
class FeasibleMaxResult:
    schedule: RateSchedule
    objective: float
    tie: bool


def feasible_max(d: int, m: int, r_m: float, r_m_minus_1: float,
                 tie_tol: float = 0.0) -> FeasibleMaxResult:
    """Maximizer of the rate LP at level m given tail differences.

    ``r_m`` is r(m,t) and ``r_m_minus_1`` is r(m-1,t) (zero for m = 1).
    When the two budget-saturating vertices agree within ``tie_tol`` the
    pair-capped vertex is returned and the result is flagged as a tie.
    Negative r values (possible only as numerical noise) trigger no special
    casing beyond the vertex comparison.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (math.isfinite(r_m) and math.isfinite(r_m_minus_1)):
        raise ValueError("tail differences must be finite")
    cap = paired_schedule(m, d)
    single = singles_schedule(m, d)

    def objective(s: RateSchedule) -> float:
        return float(s.down2) * (r_m + r_m_minus_1) + float(s.down1) * r_m

    diff = objective(cap) - objective(single)  # = m (r_{m-1} - r_m) / (d-1)
    if abs(diff) <= tie_tol:
        return FeasibleMaxResult(schedule=cap, objective=objective(cap), tie=True)
    if diff > 0:
        return FeasibleMaxResult(schedule=cap, objective=objective(cap), tie=False)
    return FeasibleMaxResult(schedule=single, objective=objective(single), tie=False)


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


def sample_feasible_schedules(d: int, m: int, count: int, seed: int,
                              include_vertices: bool = True) -> list[RateSchedule]:
    """Random points of the down-rate polytope by rejection from its
    bounding box, plus the four vertices."""
    rng = np.random.default_rng(seed)
    out: list[RateSchedule] = []
    if include_vertices:
        out += [RateSchedule(), paired_schedule(m, d), singles_schedule(m, d),
                RateSchedule(down2=Fraction(m, d - 1))]
    box1 = m * d / (d - 1)
    box2 = m / (d - 1)
    while len(out) < count + 4 * include_vertices:
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
    r_m: float
    r_m_minus_1: float
    status: str  # "match" | "tie" | "violation"
    equals_optimal: bool  # returned maximizer == built-in rates
    objective: float


@dataclass(frozen=True)
class ArgmaxGridReport:
    d: int
    m_max: int
    t_grid: np.ndarray
    eps: float
    cells: tuple[BellmanCell, ...]

    @property
    def n_violations(self) -> int:
        return sum(c.status == "violation" for c in self.cells)

    @property
    def n_ties(self) -> int:
        return sum(c.status == "tie" for c in self.cells)

    @property
    def all_match(self) -> bool:
        return self.n_violations == 0


def verify_argmax_grid(d: int, m_max: int, t_grid, eps: float = 1e-12) -> ArgmaxGridReport:
    """Check cell-by-cell that the rate LP selects the built-in rates.

    The LP inputs carry the uniformization error bound eps, so vertex
    objectives within the combined slack 4*m*eps/(d-1) count as ties.  A tie
    means the objective cannot distinguish the vertices, hence nothing beats
    the built-in rates there; ties are reported but are not violations.  A
    violation is a cell where the LP strictly prefers a different vertex.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    table = survival_table(d, m_max, t_grid, eps)
    v = table.values
    cells = []
    for m in range(1, m_max + 1):
        r_m = v[m] - v[m - 1]
        r_prev = v[m - 1] - v[m - 2] if m >= 2 else np.zeros_like(r_m)
        opt = optimal_rates(m, d)
        tie_tol = 4.0 * m * eps / (d - 1)
        for j, t in enumerate(t_grid):
            res = feasible_max(d, m, float(r_m[j]), float(r_prev[j]), tie_tol=tie_tol)
            if res.tie:
                status = "tie"  # objective indifferent: nothing beats the optimum
            else:
                status = "match" if res.schedule == opt else "violation"
            cells.append(BellmanCell(d=d, m=m, t=float(t), r_m=float(r_m[j]),
                                     r_m_minus_1=float(r_prev[j]), status=status,
                                     equals_optimal=res.schedule == opt,
                                     objective=res.objective))
    return ArgmaxGridReport(d=d, m_max=m_max, t_grid=t_grid, eps=eps,
                            cells=tuple(cells))


@dataclass(frozen=True)
class DominanceReport:
    """Pointwise comparison of a baseline's empirical tail against the
    optimal strategy's exact tail."""

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
    """Check empirical P(tau_c > t) + 3 half-widths >= exact optimal tail - eps.

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
    slack = emp.value + emp.half_width_3sigma - (exact - eps)
    violations = tuple(int(j) for j in np.nonzero(slack < 0)[0])
    return DominanceReport(d=d, m0=m0, competitor=competitor.value, t_grid=t_grid,
                           empirical=emp, exact_tail=exact, eps=eps,
                           violations=violations,
                           max_deficit=float(max(0.0, -slack.min())))
