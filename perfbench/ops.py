"""Operations of the in-process workloads: certify, simulate, asymptotic.

Each workload is a fixed list of operations.  The workload seed sets the
Monte Carlo seeds, the jitter of the time grids and the Bellman schedule
samples; sizes never depend on it.  Grid endpoints are never jittered, so the
uniformization order (set by the largest time) is the same for every seed.

``SIZES["tiny"]`` keeps every operation and name but shrinks the inputs; the
benchmark's own smoke test uses it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks

SIZES = {
    "full": dict(
        certify_d=(3, 4, 10), certify_m=30, certify_points=20,
        bellman_m=10, bellman_samples=50,
        sim_d=4, sim_m0=40, sim_r=10**6, surv_points=200, surv_t=12.0,
        dom_m0=10, dom_r=10**5, dom_points=20, dom_t=8.0,
        marg_n=5, marg_t=10.0, marg_r=10**4,
        tv_n=(10**4, 10**6), tv_points=9,
        stat_n=(100, 300, 700, 1000), stat_points=50, stat_t=12.0,
        mean_exact_n=400, mean_float_n=10**6,
    ),
    "tiny": dict(
        certify_d=(3, 4, 10), certify_m=6, certify_points=5,
        bellman_m=3, bellman_samples=5,
        sim_d=4, sim_m0=8, sim_r=2000, surv_points=20, surv_t=12.0,
        dom_m0=4, dom_r=2000, dom_points=5, dom_t=8.0,
        marg_n=3, marg_t=4.0, marg_r=300,
        tv_n=(100, 1000), tv_points=3,
        stat_n=(10, 20, 30, 40), stat_points=10, stat_t=12.0,
        mean_exact_n=30, mean_float_n=1000,
    ),
}

WORKLOADS = ("certify", "simulate", "asymptotic")
EPS = 1e-12  # the package's default certified error bound


@dataclass(frozen=True)
class Op:
    """One timed call (``run``) and its untimed output check.

    ``check(output, done)`` returns ``(ok, info)``; ``done`` maps the names
    of earlier operations of the same pass to their outputs.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], tuple[bool, dict]]


def jittered_linspace(rng, lo, hi, points):
    grid = np.linspace(lo, hi, points)
    if points > 2:
        step = (hi - lo) / (points - 1)
        grid[1:-1] += rng.uniform(-0.4, 0.4, points - 2) * step
    return grid


def jittered_geomspace(rng, lo, hi, points):
    return np.exp(jittered_linspace(rng, np.log(lo), np.log(hi), points))


def seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31, count)]


# ---------------------------------------------------------------------------


def certify_ops(rng, s) -> list[Op]:
    import cowalk as cw
    from cowalk import exact, optimality

    m_max = s["certify_m"]
    ops = []
    for d in s["certify_d"]:
        grid = jittered_geomspace(rng, 0.01, 10.0, s["certify_points"])
        sched_seed = seeds(rng, 1)[0]

        def laplace(d=d):
            return cw.laplace_V(d, m_max), [cw.laplace_R(d, m) for m in range(1, m_max + 1)]

        def argmax(d=d, grid=grid, sched_seed=sched_seed):
            report = cw.verify_argmax_grid(d, m_max, grid, EPS)
            gaps = []
            for m in range(1, s["bellman_m"] + 1):
                tails = exact.survival_table(d, m + 2, grid, EPS).values
                for j, t in enumerate(grid):
                    for sched in optimality.sample_feasible_schedules(
                            d, m, s["bellman_samples"], seed=sched_seed + 7919 * m + j):
                        gaps.append(cw.bellman_gap(d, m, float(t), sched, EPS,
                                                   tails=tails[:, j]))
            return report, gaps

        ops += [
            Op(f"laplace.d{d}", laplace,
               lambda out, done, d=d: checks.check_laplace(d, out[0], out[1])),
            Op(f"rdiff.d{d}", lambda d=d, grid=grid: cw.r_diff_table(d, m_max, grid, EPS),
               lambda out, done: checks.check_sign_table(out)),
            Op(f"argmax.d{d}", argmax,
               lambda out, done: checks.check_argmax(out[0], out[1], s["bellman_m"])),
        ]
    return ops


def simulate_ops(rng, s) -> list[Op]:
    import cowalk as cw
    from cowalk.states import WalkParams

    d, m0, reps = s["sim_d"], s["sim_m0"], s["sim_r"]
    lumped_seed, indep_seed, surv_seed = seeds(rng, 3)
    surv_grid = jittered_linspace(rng, 0.0, s["surv_t"], s["surv_points"])
    dom_grid = jittered_linspace(rng, 0.1, s["dom_t"], s["dom_points"])
    means = {k: checks.exact_means(k, d, m0)[m0] for k in ("optimal", "independent")}

    def lumped(strategy, seed, workers=1):
        return lambda: cw.sample_coupling_times(strategy, d, m0, reps, seed, n_workers=workers)

    def same_as_single_worker(out, done):
        ref = done.get("lumped.optimal")
        equal = ref is not None and all(np.array_equal(a, b) for a, b in zip(out, ref))
        return equal, {"bitwise_equal_to_lumped.optimal": equal}

    def survival_check(curve, done):
        start = np.zeros(m0 + 1)
        start[m0] = 1.0
        return checks.check_band(curve.value, checks.tail_by_expm(d, start, surv_grid),
                                 reps, EPS)

    ops = [
        Op("lumped.optimal", lumped("optimal", lumped_seed),
           lambda out, done: checks.check_sample_mean(out[0], means["optimal"])),
        Op("lumped.independent", lumped("independent", indep_seed),
           lambda out, done: checks.check_sample_mean(out[0], means["independent"])),
        Op("lumped.optimal.w2", lumped("optimal", lumped_seed, workers=2),
           same_as_single_worker),
        Op("survival.optimal",
           lambda: cw.estimate_survival("optimal", d, m0, surv_grid, reps, surv_seed,
                                        n_workers=1),
           survival_check),
    ]
    for comp, seed in zip(("independent", "synchronous", "pairwise-classic"), seeds(rng, 3)):
        ops.append(Op(
            f"dominance.{comp}",
            lambda comp=comp, seed=seed: cw.dominance_test(
                d, s["dom_m0"], comp, dom_grid, s["dom_r"], seed, EPS, n_workers=1),
            lambda rep, done: (rep.passed, {"max_deficit": rep.max_deficit})))
    params = WalkParams(d=d, n=s["marg_n"])
    for strategy, seed in zip(("optimal", "independent"), seeds(rng, 2)):
        ops.append(Op(
            f"marginals.{strategy}",
            lambda strategy=strategy, seed=seed: cw.validate_marginals(
                strategy, params, s["marg_t"], s["marg_r"], seed),
            lambda rep, done: checks.check_marginals(rep, s["marg_t"], s["marg_r"],
                                                     s["marg_n"])))
    return ops


def asymptotic_ops(rng, s) -> list[Op]:
    import cowalk as cw

    d = 5
    ops = []
    for n, label in zip(s["tv_n"], ("n1e4", "n1e6")):
        theta = jittered_linspace(rng, -2.0, 2.0, s["tv_points"])
        ops.append(Op(f"tv.{label}", lambda n=n, theta=theta: cw.cutoff_profile(d, n, theta),
                      lambda out, done, n=n: checks.check_tv(out, d, n)))
    for n, label in zip(s["stat_n"], (100, 300, 700, 1000)):
        grid = jittered_linspace(rng, 0.0, s["stat_t"], s["stat_points"])
        ops.append(Op(f"stationary.n{label}",
                      lambda n=n, grid=grid: cw.survival_from_stationary(d, n, grid, EPS),
                      lambda out, done, n=n, grid=grid: checks.check_stationary(out, d, n, grid)))
    n_exact, n_float = s["mean_exact_n"], s["mean_float_n"]
    ops += [
        Op("mean.n400", lambda: cw.mean_tau_stationary(d, n_exact),
           lambda out, done: checks.check_mean_exact(out, d, n_exact)),
        Op("mean.n1e6", lambda: cw.mean_tau_stationary(d, n_float, exact=False),
           lambda out, done: checks.check_mean_float(out, d, n_float)),
    ]
    return ops


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The fixed operation list of ``workload`` with inputs drawn from seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    builder = {"certify": certify_ops, "simulate": simulate_ops,
               "asymptotic": asymptotic_ops}[workload]
    return builder(rng, SIZES[size])

