"""Event-driven simulation of coupled walks and empirical survival curves.

For every built-in strategy the unmatched count N is an autonomous Markov
chain, so coupling times are sampled from the lumped jump chain of N; the
full-coordinate construction (explicit state vectors, one event per accepted
Poisson mark) is retained for validating that each chain's marginal law is a
correct random walk.  That the control matrix of each strategy lumps to the
chain of N is checked in the tests, against a coordinate-level reference.

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

from . import _kernels
from .exact import _time_grid
from .states import WalkParams
from .strategies import Strategy, _count, death_chain, rate_table

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
# expected candidate events that validate_marginals accepts: per replicate,
# half a sub-block (2^19 events), so no replicate outgrows one; in all, a
# time budget of about three minutes at the README size's rate (2-core Xeon)
_MAX_REPLICATE_EVENTS = _BLOCK // 8
_MAX_EVENTS = 1 << 30
_LUMPED_BLOCK = 1 << 17  # replicate-steps per lumped sub-block: fits in cache
_LUMPED_ROWS = 1024  # rows per sub-block at least, up to 16 blocks (32 MB of uniforms)
# deepest start level: the rate tables hold m0 + 1 levels, and m0 = 10^6
# already takes about 5 s and 144 MB at two replicates (Xeon)
_MAX_START_LEVEL = 10**6


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


def _run_lumped_chunk(seed, index, tau, njumps, total, p2, m0, t_max):
    # fills the chunk's slices tau and njumps; sub-blocks draw the chunk's
    # stream in order, so they change no value
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
    # the row floor keeps numpy's per-step overhead small at large m0
    steps = max(m0, 1)
    rows = max(1, _LUMPED_BLOCK // steps, min(_LUMPED_ROWS, 16 * _LUMPED_BLOCK // steps))
    starts = range(0, tau.size, rows)
    rows = min(rows, tau.size)
    # the sub-blocks take turns in two uniform buffers and share one of holding times
    uniforms = np.empty((min(2, len(starts)), rows, m0, 2))
    hold = np.empty((rows, m0))

    def draw(i):
        return rng.random(out=uniforms[i % 2, :tau.size - starts[i]])

    def run(start, u):
        exp_draws = hold[:len(u)]  # holding-time deviates -log1p(-u), host-side, in place
        np.log1p(np.negative(u[:, :, 0], out=exp_draws), out=exp_draws)
        np.negative(exp_draws, out=exp_draws)
        stop = start + len(u)
        tau[start:stop], njumps[start:stop] = _kernels.lumped_batch(
            total, p2, m0, t_max, exp_draws, u[:, :, 1])

    # a helper thread draws sub-block i+1 (rng.random releases the GIL) into
    # the buffer sub-block i-1 left while this one runs sub-block i; only
    # the helper touches rng, in stream order, and leaving the block joins
    # it, on error too
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(draw, 0)
        for i, start in enumerate(starts):
            u = ahead.result()
            if i + 1 < len(starts):
                ahead = helper.submit(draw, i + 1)
            run(start, u)


def sample_coupling_times(strategy: Strategy, d: int, m0: int, replicates: int,
                          seed: int, t_max: float = math.inf,
                          n_workers: int | None = None):
    """Coupling times (and N-jump counts) of ``replicates`` independent runs
    started at unmatched count m0.  Censored runs (no possible move, or
    absorption after t_max) carry tau = +inf.  m0 is an int or numpy integer
    in [0, 10^6].

    Memory: the output, 16 B per replicate, filled in place by every chunk,
    plus per worker two uniform sub-blocks and one holding-time block (5 MB
    at m0 = 40): 21.9 MB traced at R = 2^20, m0 = 40, 26.3 MB on two workers."""
    m0, replicates = _count("m0", m0, 0), _count("replicates", replicates, 1)
    if m0 > _MAX_START_LEVEL:  # before any rate table is allocated
        raise ValueError(f"the lumped sampler starts at level at most {_MAX_START_LEVEL};"
                         f" level {m0} was asked")
    if not t_max > 0:  # also refuses nan
        raise ValueError("t_max must be positive")
    n_workers = None if n_workers is None else _count("n_workers", n_workers, 1)
    total, p2 = rate_table(Strategy(strategy), d, m0)
    if m0 > 0 and total[m0] == 0:  # every run is stuck at the start
        return np.full(replicates, np.inf), np.zeros(replicates, dtype=np.int64)
    tau, njumps = np.empty(replicates), np.empty(replicates, dtype=np.int64)
    bounds = _chunk_bounds(replicates, m0)

    def run(idx):  # the chunks' slices of tau and njumps are disjoint
        lo, hi = bounds[idx]
        _run_lumped_chunk(seed, idx, tau[lo:hi], njumps[lo:hi], total, p2, m0, t_max)

    with ThreadPoolExecutor(max_workers=n_workers or 1) as pool:
        list(pool.map(run, range(len(bounds))))  # re-raises a chunk's error
    return tau, njumps


def estimate_survival(strategy: Strategy, d: int, start, t_grid, replicates: int,
                      seed: int, n_workers: int | None = None) -> SurvivalCurve:
    """Empirical survival curve of the coupling time from ``start``
    unmatched coordinates (an int or numpy integer in [0, 10^6]).  Runs not absorbed
    by max(t_grid) are censored, which still gives unbiased pointwise
    estimates on the grid.

    Memory: that of ``sample_coupling_times``, as the sample is sorted in
    place; 21.2 MB traced at R = 2^20, start 40, and 104 MB ``ru_maxrss`` in
    a fresh interpreter at R = 4*10^6.
    """
    t_grid = _time_grid(t_grid)
    replicates = _count("replicates", replicates, 100)
    t_max = float(t_grid.max())
    tau, _ = sample_coupling_times(strategy, d, start, replicates, seed,
                                   t_max=np.inf if t_max == 0 else t_max * (1 + 1e-12),
                                   n_workers=n_workers)
    tau.sort()  # in place: count of tau > t for each t, with no copy of the sample
    survivors = replicates - np.searchsorted(tau, t_grid, side="right")
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


def _chi2_sf(dof: int, x: float) -> float:
    """P(chi^2 with dof degrees of freedom > x), for an integer dof >= 1.

    With y = x/2 this is the regularized upper gamma Q(dof/2, y), and
    Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1) unrolls it to a finite
    sum of positive terms over a = dof/2 - 1, dof/2 - 2, ... down to 0
    (even dof, Q(0, y) taken as 0) or to 1/2 (odd dof, Q(1/2, y) =
    erfc(sqrt(y))).  Each term is one exp of its logarithm, so it is off by
    about (y + dof log y) 2^-53 relatively, and nothing cancels.
    """
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    total, a = (math.erfc(math.sqrt(y)), 0.5) if dof % 2 else (0.0, 0.0)
    while a < 0.5 * dof:
        total += math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
        a += 1.0
    return total


def _chisq(observed: np.ndarray, expected: np.ndarray, name: str) -> ChiSquareResult:
    """Pearson chi-square of observed against expected counts (the statistic
    and p-value of ``scipy.stats.chisquare``)."""
    obs_total, exp_total = observed.sum(), expected.sum()
    if abs(obs_total - exp_total) > np.finfo(float).eps ** 0.5 * min(obs_total, exp_total):
        raise ValueError("observed and expected counts have different totals")
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = observed.size - 1
    return ChiSquareResult(name=name, statistic=stat, dof=dof, p_value=_chi2_sf(dof, stat))


def _poisson_pmf(mean: float) -> np.ndarray:
    """Poisson(mean) probabilities at levels 0, 1, ... up to the first one
    past the mode below 1e-30.  The ratio recurrence p[k+1]/p[k] =
    mean/(k+1) runs outward from the mode, whose probability is one exp of
    its logarithm, so no probability underflows before it is tiny, and a
    tail sum of them is relatively accurate where 1 - (head sum) cancels."""
    mode = math.floor(mean)
    pmf = [math.exp(mode * math.log(mean) - mean - math.lgamma(mode + 1.0))]
    for k in range(mode, 0, -1):
        pmf.append(pmf[-1] * k / mean)
    pmf.reverse()
    while pmf[-1] >= 1e-30:
        pmf.append(pmf[-1] * mean / len(pmf))
    return np.array(pmf)


def _poisson_chisq(counts: np.ndarray, mean: float, name: str) -> ChiSquareResult:
    """Chi-square of observed counts against Poisson(mean), tail-pooled."""
    n_obs = counts.size
    pmf = _poisson_pmf(mean)
    # levels 0..hi-1, hi one past the (1 - 1e-9)-quantile of Poisson(mean)
    hi = int(np.searchsorted(np.cumsum(pmf), 1.0 - 1e-9)) + 1
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
    probs = np.add.reduceat(pmf, edges[:-1])  # the last bin sums the tail past hi too
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

    Memory: every sub-block of uniforms (at most 2^21, 16 MB) is drawn into
    one buffer per call, grown to the largest sub-block drawn; 18.1 MB
    traced at n = 5, horizon 10, 10^4 replicates.
    """
    strategy = Strategy(strategy)
    if strategy is Strategy.PAIRWISE_CLASSIC:
        raise ValueError(f"{strategy.value} has no full-coordinate realization")
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    replicates = _count("replicates", replicates, 1)
    d, n = params.d, params.n
    rate_dom = _kernels._DOMINATING_BLOCK_RATE * n
    if rate_dom * horizon > _MAX_REPLICATE_EVENTS or replicates * rate_dom * horizon > _MAX_EVENTS:
        raise ValueError(
            f"expected candidate events must be <= 2^18 per replicate (2*n*horizon = "
            f"{rate_dom * horizon:g}) and <= 2^30 in all (replicates*2*n*horizon = "
            f"{replicates * rate_dom * horizon:g})")
    x0 = np.zeros(n, dtype=np.int64)
    y0 = np.ones(n, dtype=np.int64)
    paired = death_chain(Strategy.OPTIMAL, d, n).c2 > 0

    parts = []
    uniforms = np.empty((0, 4))
    for idx, (lo, hi) in enumerate(_chunk_bounds(replicates, 1)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, idx))))
        ev_count = rng.poisson(rate_dom * horizon, hi - lo).astype(np.int64)
        ends = np.cumsum(ev_count)
        # sub-blocks of consecutive replicates within a cap (or one
        # replicate), drawn in stream order, so they change no value.  A cap
        # of E/k events plus the largest replicate's makes each but the last
        # hold at least E/k of the chunk's E, so k = ceil(E / (_BLOCK/4)) even
        # sub-blocks of at most _BLOCK uniforms (4 per event) hold them all.
        # Each is drawn into the one buffer, grown (the old one freed first).
        k = max(1, -(-int(ends[-1]) // (_BLOCK // 4)))
        cap = min(_BLOCK // 4, -(-int(ends[-1]) // k) + int(ev_count.max()))
        start = 0
        while start < hi - lo:
            first = ends[start] - ev_count[start]
            stop = max(start + 1, int(np.searchsorted(ends, first + cap, "right")))
            count = ev_count[start:stop]
            events = int(ends[stop - 1] - first)
            if events > len(uniforms):
                uniforms = None
                uniforms = np.empty((events, 4))
            parts.append(_kernels.marginal_batch(
                strategy, d, n, x0, y0, count, ends[start:stop] - count - first,
                rng.random(out=uniforms[:events]), paired))
            start = stop
    del uniforms  # before the outputs are joined and tested
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
