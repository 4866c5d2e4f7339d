"""Pointwise certification that the built-in strategy solves the rate LP,
plus exact stochastic dominance over the baselines (``_dominance_sign``);
``bellman_gap`` and ``dominance_test`` are float and Monte Carlo references.

At unmatched count m the instantaneous optimization is a tiny linear
program: maximize lam(-2)*[r(m,t)+r(m-1,t)] + lam(-1)*r(m,t) over the
polytope {lam >= 0, (d-1)(lam(-1)+2 lam(-2)) <= m d, (d-1) lam(-2) <= m},
with any mass on upward jumps worthless whenever the tail is increasing in
m.  The polytope has at most four vertices; r(m,t) >= 0 (the death chain
is stochastically monotone), so the budget-saturating ones win, and they
differ in objective by m*(r(m-1,t) - r(m,t))/(d-1): ``verify_argmax_grid``
reads the argmax from the certified second differences (``_level_signs``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import (SignCert, _check_eps, _combine, _level_signs, _row_sign, _spectral_levels,
                    _time_grid, survival_exact, survival_table)
from .simulate import SurvivalCurve, estimate_survival
from .strategies import (RateSchedule, Strategy, _check_level, _count, _paired, _singles,
                         _singles_mode, death_chain)

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
    v(0..m+2, t), at least m + 3 entries, to avoid recomputation.

    Bitwise contract: v(level <= 0) = 0.0 whatever ``tails[0]`` holds, the
    optimal rates are the floats c/(d-1) of their integer numerators, and
    both sums add the s = -2, -1, +1, +2 terms in order, zero rates included.
    """
    if not schedule.is_feasible(m, d):
        raise ValueError("schedule outside the feasible rate set")
    if tails is None:
        tails = survival_table(d, m + 2, [t], eps).values[:, 0]
    if len(tails) < m + 3:
        raise ValueError(f"tails must hold v(0..m+2, t): at least {m + 3} entries, "
                         f"got {len(tails)}")
    m, d = _check_level(m, d)
    row = np.asarray(tails, dtype=float)[max(m - 2, 1):m + 3].tolist()
    v = [0.0] * (5 - len(row)) + row  # v(m-2..m+2)
    dm2, dm1, dp1, dp2 = v[0] - v[2], v[1] - v[2], v[3] - v[2], v[4] - v[2]
    mine = (float(schedule.down2) * dm2 + float(schedule.down1) * dm1
            + float(schedule.up1) * dp1 + float(schedule.up2) * dp2)
    k1, k2 = _singles(d) if _singles_mode(m, d) else _paired(d)
    c1, c2 = m * k1, m * k2
    best = c2 / (d - 1) * dm2 + c1 / (d - 1) * dm1 + 0.0 * dp1 + 0.0 * dp2
    # maximizing the coupling rate = maximizing -A v, so compare negatives
    return (-mine) - (-best)


def _lp_vertices(m: int, d: int) -> list[RateSchedule]:
    """The four vertices of the down-rate polytope: no move, paired,
    singles, and the double-match cap alone.  A linear objective peaks at
    one of them, so they are the only schedules a Bellman check needs."""
    (p1, p2), (s1, s2) = _paired(d), _singles(d)
    return [RateSchedule(),
            RateSchedule(down2=Fraction(m * p2, d - 1), down1=Fraction(m * p1, d - 1)),
            RateSchedule(down2=Fraction(m * s2, d - 1), down1=Fraction(m * s1, d - 1)),
            RateSchedule(down2=Fraction(m, d - 1))]


def sample_feasible_schedules(d: int, m: int, count: int, seed: int) -> list[RateSchedule]:
    """The four vertices of the down-rate polytope, then ``count`` random
    points of it by rejection from its bounding box.

    Bitwise contract: the uniforms are drawn in blocks as box * ``rng.random``,
    which is what a scalar ``rng.uniform(0, box)`` returns, and the pairs are
    accepted in draw order, so the schedules are those of a loop drawing
    ``uniform(0, box1)`` then ``uniform(0, box2)`` per pair.
    """
    count = _count("count", count, 0)
    m, d = _check_level(m, d)  # both rules before any draw
    rng = np.random.default_rng(seed)
    out = _lp_vertices(m, d)
    box1 = m * d / (d - 1)
    box2 = m / (d - 1)
    pairs = []
    while len(pairs) < count:
        # accept rate 1 - 1/d >= 1/2; blocks of <= 256 pairs bound the scratch memory
        block = rng.random((min(2 * (count - len(pairs)) + 8, 256), 2)) * (box1, box2)
        pairs += [(lam1, lam2) for lam1, lam2 in block.tolist()
                  if (d - 1) * (lam1 + 2 * lam2) <= m * d]
    return out + [RateSchedule(down2=lam2, down1=lam1) for lam1, lam2 in pairs[:count]]


@dataclass(frozen=True)
class BellmanCell:
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
    r_certs: np.ndarray  # the certified signs the cells were read from, a column per point
    diff_certs: np.ndarray

    @property
    def n_violations(self) -> int:
        return sum(c.status == "violation" for c in self.cells)

    @property
    def n_ties(self) -> int:
        return sum(c.status == "tie" for c in self.cells)


_POSITIVE, _NEGATIVE = SignCert.POSITIVE.value, SignCert.NEGATIVE.value


def verify_argmax_grid(d: int, m_max: int, t_grid, eps: float = 1e-12) -> ArgmaxGridReport:
    """Check cell-by-cell that the rate LP selects the built-in rates.

    r(m,t) >= 0 is a theorem (``_level_signs``), so the certified sign of
    r(m-1,t) - r(m,t) decides the LP: the paired vertex if positive, the
    singles vertex if negative; at m = 1 it is -r(1,t) < 0, as R(1) is
    nonzero.  A cell reads its level's sign at t = 0 or for all t > 0, with
    no float table; eps is only checked and stored.  The built-in rates are
    the singles vertex where ``_singles_mode`` holds and the paired vertex
    elsewhere (they differ in the -2 rate at every m >= 1): a cell matches
    where its sign is its level's mode's and is a violation where it is the
    other.  A tie is a cell whose sign is an exact zero or undetermined, so
    nothing is shown to beat the built-in rates; it reports the paired vertex.
    """
    t_grid, eps = _time_grid(t_grid), _check_eps(eps)
    d, r_signs, diff_signs = _level_signs(d, m_max)
    col = (t_grid > 0).astype(int)
    r_certs, diff_certs = r_signs[:, col], diff_signs[:, col]
    cells = []
    for m, decide in enumerate([[_NEGATIVE] * len(t_grid), *diff_certs], start=1):
        opt = _NEGATIVE if _singles_mode(m, d) else _POSITIVE
        for t, sign in zip(t_grid, decide):
            tie = sign not in (_POSITIVE, _NEGATIVE)
            status = "tie" if tie else "match" if sign == opt else "violation"
            cells.append(BellmanCell(m=m, t=float(t), status=status,
                                     equals_optimal=(_POSITIVE if tie else sign) == opt))
    return ArgmaxGridReport(d=d, m_max=len(r_signs), t_grid=t_grid, eps=eps, cells=tuple(cells),
                            r_certs=r_certs, diff_certs=diff_certs)


def _dominance_sign(d: int, m: int, competitor: Strategy) -> str:
    """SignCert value of P(tau_c > t) - P(tau > t) at every t > 0 from N_0 = m,
    tau_c the coupling time of ``competitor``, off both spectral tables."""
    v_c, v_opt = (_spectral_levels(death_chain(s, d, m)) for s in (competitor, Strategy.OPTIMAL))
    return _row_sign(_combine((1, v_c[m]), (-1, v_opt[m]))[1])


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
    t_grid = _time_grid(t_grid)
    m0, d = _count("m0", m0, 0), _count("d", d, 2)
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
