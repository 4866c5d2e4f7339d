"""Event-driven simulation of coupled walks and empirical survival curves.

For every built-in strategy the unmatched count N is an autonomous Markov
chain, so coupling times are sampled from the lumped jump chain of N; the
full-coordinate construction (explicit state vectors, one event per accepted
Poisson mark) is retained for validating that each chain's marginal law is a
correct random walk.  Equivalence of the two views is a tested property via
``strategies.lump_rates``.

Randomness contract: a master seed is split per replicate chunk through
``numpy.random.SeedSequence``; inside a chunk, replicate r owns row r of a
counter-based (Philox) uniform block (in the event kernel, one row per
candidate event).  Replicates are therefore independent,
reproducible, and safe to fan out across workers; aggregation is a
deterministic reduction by chunk index.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import chdtrc, gammaln, pdtr, pdtrik, xlogy

from . import _kernels
from .exact import _time_grid
from .states import WalkParams, hamming
from .strategies import Strategy, death_chain, rate_table

__all__ = [
    "SurvivalCurve",
    "ChiSquareResult",
    "MarginalReport",
    "sample_coupling_times",
    "estimate_survival",
    "validate_marginals",
]

_CHUNK = 1 << 15
_BLOCK = 1 << 21  # uniforms drawn and run at once by the event kernel
_LUMPED_BLOCK = 1 << 17  # replicate-steps per lumped sub-block: fits in cache


@dataclass(frozen=True)
class SurvivalCurve:
    """P(tau > t) on a grid; empirical with Wald half-widths, or exact."""

    t_grid: np.ndarray
    value: np.ndarray
    half_width_95: np.ndarray
    half_width_3sigma: np.ndarray
    replicates: int
    kind: str = "empirical"
    eps: float | None = None  # certified bound, exact kind only


def _chunk_bounds(replicates: int, m0: int):
    chunk = max(1, min(_CHUNK, (1 << 24) // max(m0, 1)))
    return [(lo, min(lo + chunk, replicates)) for lo in range(0, replicates, chunk)]


def _run_lumped_chunk(seed, index, lo, hi, total, p2, m0, t_max):
    # sub-blocks draw the chunk's stream in order, so they change no value
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
    rows = max(1, _LUMPED_BLOCK // max(m0, 1))
    parts = []
    for start in range(lo, hi, rows):
        u = rng.random((min(rows, hi - start), m0, 2))
        exp_draws = -np.log1p(-u[:, :, 0])  # holding-time deviates, host-side
        parts.append(_kernels.lumped_batch(total, p2, m0, t_max, exp_draws, u[:, :, 1]))
    tau, njumps = zip(*parts)
    return np.concatenate(tau), np.concatenate(njumps)


def sample_coupling_times(strategy: Strategy, d: int, m0: int, replicates: int,
                          seed: int, t_max: float = math.inf,
                          n_workers: int | None = None):
    """Coupling times (and N-jump counts) of ``replicates`` independent runs
    started at unmatched count m0.  Censored runs (no possible move, or
    absorption after t_max) carry tau = +inf."""
    if m0 < 0:
        raise ValueError("m0 must be >= 0")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if not t_max > 0:  # also refuses nan
        raise ValueError("t_max must be positive")
    if n_workers is not None and n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    total, p2 = rate_table(Strategy(strategy), d, max(m0, 1))
    bounds = _chunk_bounds(replicates, m0)

    def run(idx):
        return _run_lumped_chunk(seed, idx, *bounds[idx], total, p2, m0, t_max)

    chunks = range(len(bounds))
    if (n_workers or 1) > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            tau, njumps = zip(*pool.map(run, chunks))  # yields in chunk order
    else:
        tau, njumps = zip(*map(run, chunks))
    return np.concatenate(tau), np.concatenate(njumps)


def estimate_survival(strategy: Strategy, d: int, start, t_grid, replicates: int,
                      seed: int, n_workers: int | None = None) -> SurvivalCurve:
    """Empirical survival curve of the coupling time.

    ``start`` is either an initial unmatched count m0 or a pair of states
    (x0, y0).  Runs not absorbed by max(t_grid) are censored, which still
    gives unbiased pointwise estimates on the grid.
    """
    t_grid = _time_grid(t_grid)
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    m0 = int(start) if isinstance(start, (int, np.integer)) else hamming(*start)
    t_max = float(t_grid.max())
    tau, _ = sample_coupling_times(strategy, d, m0, replicates, seed,
                                   t_max=np.inf if t_max == 0 else t_max * (1 + 1e-12),
                                   n_workers=n_workers)
    # count of tau > t for each t, from the sorted sample: O(R) memory
    survivors = replicates - np.searchsorted(np.sort(tau), t_grid, side="right")
    value = survivors / replicates
    sigma = np.sqrt(value * (1.0 - value) / replicates)
    return SurvivalCurve(t_grid=t_grid, value=value,
                         half_width_95=1.959963984540054 * sigma,
                         half_width_3sigma=3.0 * sigma,
                         replicates=replicates, kind="empirical")


# ---------------------------------------------------------------------------
# marginal-law validation


@dataclass(frozen=True)
class ChiSquareResult:
    name: str
    statistic: float
    dof: int
    p_value: float
    p_bonferroni: float = field(default=float("nan"))


@dataclass(frozen=True)
class MarginalReport:
    """Chi-square validation that both chains are correct random walks."""

    strategy: str
    d: int
    n: int
    horizon: float
    replicates: int
    tests: tuple[ChiSquareResult, ...]
    mean_changes_x: float
    mean_changes_y: float
    all_moves_joint: bool
    alpha: float = 1e-3

    @property
    def passed(self) -> bool:
        return all(t.p_bonferroni > self.alpha for t in self.tests)


def _chisq(observed: np.ndarray, expected: np.ndarray, name: str) -> ChiSquareResult:
    """Pearson chi-square of observed against expected counts (the statistic
    and p-value of ``scipy.stats.chisquare``, without importing it)."""
    obs_total, exp_total = observed.sum(), expected.sum()
    if abs(obs_total - exp_total) > np.finfo(float).eps ** 0.5 * min(obs_total, exp_total):
        raise ValueError("observed and expected counts have different totals")
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = observed.size - 1
    return ChiSquareResult(name=name, statistic=stat, dof=dof,
                           p_value=float(chdtrc(dof, stat)))


def _poisson_chisq(counts: np.ndarray, mean: float, name: str) -> ChiSquareResult:
    """Chi-square of observed counts against Poisson(mean), tail-pooled."""
    n_obs = counts.size
    # one past the (1 - 1e-9)-quantile of Poisson(mean)
    q = 1.0 - 1e-9
    hi = math.ceil(pdtrik(q, mean))
    if hi > 0 and pdtr(hi - 1, mean) >= q:
        hi -= 1
    hi += 1
    levels = np.arange(hi)
    pmf = np.exp(xlogy(levels, mean) - gammaln(levels + 1) - mean)
    # pool bins from the right until every expected count is >= 5
    expected = pmf * n_obs
    edges = [0]
    acc = 0.0
    for k in range(hi):
        acc += expected[k]
        if acc >= 5.0:
            edges.append(k + 1)
            acc = 0.0
    if len(edges) < 3:
        raise ValueError("horizon too short for a Poisson chi-square")
    edges[-1] = hi
    observed = np.histogram(np.minimum(counts, hi - 1), bins=edges)[0].astype(float)
    probs = np.add.reduceat(pmf, edges[:-1])
    probs[-1] += 1.0 - pmf.sum()
    return _chisq(observed, probs * n_obs, name)


def _uniform_chisq(hist: np.ndarray, name: str) -> ChiSquareResult:
    if hist.sum() == 0:
        raise ValueError("no increments observed")
    observed = hist.astype(float)
    return _chisq(observed, np.full(observed.size, observed.mean()), name)


def validate_marginals(strategy: Strategy, params: WalkParams, horizon: float,
                       replicates: int, seed: int) -> MarginalReport:
    """Full-coordinate simulation over [0, horizon] plus chi-square checks.

    Both chains start unmatched in every coordinate (x = 0, y = 1 shifted),
    which exercises the coupled moves; per-coordinate value-change counts
    are tested against Poisson(horizon) and pooled increments against the
    uniform law on {1, .., d-1}, separately for X and Y.
    """
    strategy = Strategy(strategy)
    if strategy is Strategy.PAIRWISE_CLASSIC:
        raise ValueError(f"{strategy.value} has no full-coordinate realization")
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    d, n = params.d, params.n
    x0 = np.zeros(n, dtype=np.int64)
    y0 = np.ones(n, dtype=np.int64)
    rate_dom = _kernels._DOMINATING_BLOCK_RATE * n
    paired = death_chain(Strategy.OPTIMAL, d, n).c2 > 0

    parts = []
    for idx, (lo, hi) in enumerate(_chunk_bounds(replicates, 1)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, idx))))
        ev_count = rng.poisson(rate_dom * horizon, hi - lo).astype(np.int64)
        ends = np.cumsum(ev_count)
        start = 0
        while start < hi - lo:
            # consecutive replicates with at most _BLOCK uniforms (4 per
            # event), or one replicate; drawn in stream order, so the
            # sub-blocks change no value
            first = ends[start] - ev_count[start]
            stop = max(start + 1, int(np.searchsorted(ends, first + _BLOCK // 4, "right")))
            count = ev_count[start:stop]
            u = rng.random((int(ends[stop - 1] - first), 4))
            parts.append(_kernels.marginal_batch(
                strategy, d, n, x0, y0, count, ends[start:stop] - count - first, u, paired))
            start = stop
    xchg, ychg, xinc, yinc, joint = zip(*parts)
    xchg, ychg, xinc, yinc = np.concatenate(xchg), np.concatenate(ychg), sum(xinc), sum(yinc)

    tests = [
        _poisson_chisq(xchg.ravel(), horizon, "x_changes_poisson"),
        _poisson_chisq(ychg.ravel(), horizon, "y_changes_poisson"),
        _uniform_chisq(xinc[1:], "x_increments_uniform"),
        _uniform_chisq(yinc[1:], "y_increments_uniform"),
    ]
    tests = tuple(replace(t, p_bonferroni=min(1.0, t.p_value * len(tests))) for t in tests)
    return MarginalReport(
        strategy=strategy.value, d=d, n=n, horizon=horizon, replicates=replicates,
        tests=tests,
        mean_changes_x=float(xchg.mean()), mean_changes_y=float(ychg.mean()),
        all_moves_joint=bool(2 * sum(int(j.sum()) for j in joint) == xchg.sum() + ychg.sum()),
    )
