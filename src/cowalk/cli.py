"""Command-line front end.

Subcommands: simulate, exact, laplace, mean-tau, tv, cutoff, limit, verify,
validate-marginals.  Every run writes its artifact (CSV or JSON) plus a
``<file>.meta.json`` sidecar with the seed, parameters, and versions; with
no --out the artifact goes to stdout, byte for byte the same, and no sidecar
is written.  Each subcommand takes only the flags it reads; flags win over
values from an optional JSON config file (--config).

Exit codes: 0 success, 2 invalid configuration, 1 runtime failure,
3 internal assertion failure.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
import types
import typing
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from . import __version__, exact, io, optimality, simulate, tvcutoff
from .ratfun import Poly, RationalFn, format_rational
from .states import WalkParams
from .strategies import Strategy

_STRATEGY_NAMES = [s.value for s in Strategy]


@dataclass
class ExperimentConfig:
    """Merged, validated run parameters (flags over config file)."""

    d: int | None = None
    n: int | None = None
    m: int | None = None
    m_max: int | None = None
    strategy: str | None = None
    replicates: int = 100_000
    seed: int = 0
    eps: float = 1e-12
    horizon: float = 10.0
    out: str | None = None
    fmt: str = "csv"
    workers: int | None = None
    t_values: list[float] | None = None
    t_start: float = 0.0
    t_stop: float = 10.0
    t_points: int = 50
    t_spacing: str = "linear"
    theta: list[float] | None = None
    d_list: list[int] | None = None
    samples: int = 50

    def validate(self):
        if self.d is not None and self.d < 2:
            raise ValueError("d must be >= 2")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m is not None and self.m < 0:
            raise ValueError("m must be >= 0")
        if self.m_max is not None and self.m_max < 1:
            raise ValueError("mmax must be >= 1")
        if self.replicates < 100:
            raise ValueError("replicates must be >= 100")
        if not (0.0 < self.eps <= 1e-2):
            raise ValueError("eps must lie in (0, 1e-2]")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.t_spacing not in ("linear", "log"):
            raise ValueError("t-spacing must be linear or log")
        if self.t_points < 1:
            raise ValueError("t-points must be >= 1")
        if self.t_values is not None and not self.t_values:
            raise ValueError("t must list at least one time point")
        if self.samples < 0:
            raise ValueError("samples must be >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        return self

    def t_grid(self) -> np.ndarray:
        if self.t_values is not None:
            return np.asarray(self.t_values, dtype=float)
        if self.t_spacing == "log":
            if self.t_start <= 0:
                raise ValueError("log spacing needs t-start > 0")
            return np.geomspace(self.t_start, self.t_stop, self.t_points)
        return np.linspace(self.t_start, self.t_stop, self.t_points)


def float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _fits(hint, val) -> bool:
    """Whether a JSON value fits a field type: bools are not numbers, ints
    are floats, and lists check every item."""
    origin = typing.get_origin(hint)
    if origin is types.UnionType:
        return any(_fits(h, val) for h in typing.get_args(hint))
    if origin is list:
        return isinstance(val, list) and all(_fits(typing.get_args(hint)[0], v) for v in val)
    return isinstance(val, (int, float) if hint is float else hint) and not isinstance(val, bool)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            file_vals = json.load(fh)
        # argparse sets the dests of the subcommand's own flags only
        unknown = set(file_vals) - ({f.name for f in fields(cfg)} & vars(args).keys())
        if unknown:
            raise ValueError(f"config keys {args.command} does not take: {sorted(unknown)}")
        hints = typing.get_type_hints(ExperimentConfig)
        for key, val in file_vals.items():
            if not _fits(hints[key], val):
                raise ValueError(f"config key {key!r} must be "
                                 f"{ExperimentConfig.__annotations__[key]}, not {val!r}")
            setattr(cfg, key, val)
    for f in fields(cfg):  # every flag's dest is a field name
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg.validate()


def _emit(cfg: ExperimentConfig, command: str, payload, write_csv=None) -> None:
    """Write the artifact once, to stdout or to --out plus its metadata
    sidecar: CSV through ``write_csv(stream)`` when given and asked for,
    else JSON."""
    with (open(cfg.out, "w", newline="") if cfg.out is not None
          else nullcontext(sys.stdout)) as fh:
        if write_csv is None or cfg.fmt == "json":
            io.write_json(payload, fh)
        else:
            write_csv(fh)
    if cfg.out is not None:
        io.write_metadata(cfg.out, command,
                          {k: v for k, v in vars(cfg).items() if k != "out"}, cfg.seed)
        print(f"wrote {cfg.out}", file=sys.stderr)


def _require(cfg: ExperimentConfig, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ValueError(f"missing required parameter --{name.replace('_', '-')}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(cfg: ExperimentConfig):
    _require(cfg, "d", "m", "strategy")
    curve = simulate.estimate_survival(Strategy(cfg.strategy), cfg.d, cfg.m,
                                       cfg.t_grid(), cfg.replicates, cfg.seed,
                                       n_workers=cfg.workers)
    _emit(cfg, "simulate", curve, lambda fh: io.write_survival_csv(curve, fh))


def _cmd_exact(cfg: ExperimentConfig):
    _require(cfg, "d")
    if cfg.m is None and cfg.m_max is None:
        raise ValueError("need --m or --mmax")
    m_max = cfg.m_max if cfg.m_max is not None else max(cfg.m, 1)
    table = exact.survival_table(cfg.d, m_max, cfg.t_grid(), cfg.eps)
    if cfg.m_max is None:
        table = replace(table, m_max=cfg.m, values=table.values[: cfg.m + 1])
    _emit(cfg, "exact", table, lambda fh: io.write_tail_csv(table, fh))


def _cmd_laplace(cfg: ExperimentConfig):
    _require(cfg, "d", "m")
    d, m = cfg.d, cfg.m
    levels = exact._transform_levels(d, max(m, 3))  # serves every row and identity
    V = [levels.canonical(p, level) for level, p in enumerate(levels.P)]
    R = [None] + [levels.canonical(levels.r_numerator(level), level)
                  for level in range(1, len(V))]
    taus = list(exact._mean_levels(d, m, Fraction(0)))
    rows = []
    for level in range(0, m + 1):
        entry = {"m": level, "V": format_rational(V[level])}
        if level >= 1:
            entry["R"] = format_rational(R[level])
            entry["expected_tau"] = str(taus[level])
        rows.append(entry)
    checks = {
        "V1_closed_form": V[1] == RationalFn(Poly([d - 1]), Poly([d, d - 1])),
        "R2_closed_form": R[2] == RationalFn(Poly([d - 2]), Poly([2, 1]) * Poly([d, d - 1])),
        "R1_minus_R2_is_1_over_2_plus_alpha":
            R[1] - R[2] == RationalFn(Poly([1]), Poly([2, 1])),
    }
    if d >= 4:
        checks["R2_minus_R3_closed_form"] = (
            R[2] - R[3] == RationalFn(Poly([d - 4]), Poly([2, 1]) * Poly([3, 1]) * Poly([d - 1])))
    payload = {"d": d, "levels": rows, "identities": {k: bool(v) for k, v in checks.items()}}
    _emit(cfg, "laplace", payload)


def _cmd_mean_tau(cfg: ExperimentConfig):
    _require(cfg, "d")
    payload: dict = {"d": cfg.d}
    if cfg.m is not None:
        value = exact.expected_tau(cfg.d, cfg.m)
        payload["m"] = cfg.m
        payload["expected_tau"] = str(value)
        payload["expected_tau_float"] = float(value)
        if cfg.m % 2 == 0 and cfg.m > 0:
            half = cfg.m // 2
            lower = exact.mk_bound_mean(2, half)
            upper = exact.mk_bound_mean(1, cfg.m)
            payload["sandwich"] = {
                "lower": str(lower), "upper": str(upper),
                "holds": bool(lower <= value <= upper),
            }
    if cfg.n is not None:
        mean = tvcutoff.mean_tau_stationary(cfg.d, cfg.n)
        mean_f = float(mean)
        payload["n"] = cfg.n
        payload["mean_tau_stationary"] = str(mean) if isinstance(mean, Fraction) else mean
        payload["mean_tau_stationary_float"] = mean_f
        if cfg.n > 1:
            ratio = mean_f / math.log(cfg.n)
            payload["log_n"] = math.log(cfg.n)
            payload["ratio_to_log_n"] = ratio
            payload["in_half_to_one"] = bool(0.5 <= ratio <= 1.0)
    _emit(cfg, "mean-tau", payload)


def _cmd_tv(cfg: ExperimentConfig):
    _require(cfg, "d", "n")
    grid = cfg.t_grid()
    values = [tvcutoff.tv_exact(cfg.d, cfg.n, t) for t in grid]
    _emit(cfg, "tv", {"d": cfg.d, "n": cfg.n, "t": list(map(float, grid)), "tv_exact": values},
          lambda fh: io.write_csv(fh, ["t", "tv_exact"], zip(grid, values)))


def _cmd_cutoff(cfg: ExperimentConfig):
    _require(cfg, "d", "n")
    theta = cfg.theta if cfg.theta is not None else [-1.0, 0.0, 1.0]
    points = tvcutoff.cutoff_profile(cfg.d, cfg.n, theta)
    _emit(cfg, "cutoff", points, lambda fh: io.write_cutoff_csv(points, fh))


def _cmd_limit(cfg: ExperimentConfig):
    _require(cfg, "n")
    grid = cfg.t_grid()
    payload: dict = {"n": cfg.n, "t": list(map(float, grid)),
                     "limit_tail": list(map(float, tvcutoff.limit_tail(cfg.n, grid)))}
    if cfg.d_list:
        gaps = tvcutoff.dinfty_convergence(cfg.n, cfg.d_list, grid, cfg.eps)
        payload["gaps"] = gaps
        payload["strictly_decreasing"] = bool(
            all(a.sup_gap > b.sup_gap for a, b in zip(gaps, gaps[1:])))
    _emit(cfg, "limit", payload, lambda fh: io.write_csv(
        fh, ["t", "limit_tail"], zip(payload["t"], payload["limit_tail"])))


def _cmd_verify(cfg: ExperimentConfig):
    _require(cfg, "d", "m_max")
    grid = cfg.t_grid()
    grid = grid[grid > 0]  # t = 0 objectives vanish identically
    if grid.size == 0:
        raise ValueError("verify needs at least one positive time point")
    argmax = optimality.verify_argmax_grid(cfg.d, cfg.m_max, grid, cfg.eps)
    statuses = {}
    for cell in argmax.cells:
        statuses[f"m={cell.m},t={cell.t:g}"] = cell.status
    rng_gaps = []
    for m in range(1, cfg.m_max + 1):
        tails = exact.survival_table(cfg.d, m + 2, grid, cfg.eps).values
        for j, t in enumerate(grid):
            for sched in optimality.sample_feasible_schedules(
                    cfg.d, m, cfg.samples, seed=cfg.seed + 7919 * m + j):
                rng_gaps.append(optimality.bellman_gap(
                    cfg.d, m, float(t), sched, tails=tails[:, j]))
    dominance = {}
    m0 = min(max(2, cfg.m_max // 2), cfg.m_max)
    for comp in (Strategy.INDEPENDENT, Strategy.SYNCHRONOUS, Strategy.PAIRWISE_CLASSIC):
        rep = optimality.dominance_test(cfg.d, m0, comp, grid,
                                        cfg.replicates, cfg.seed, cfg.eps,
                                        n_workers=cfg.workers)
        dominance[comp.value] = {"passed": rep.passed,
                                 "violations": list(rep.violations),
                                 "max_deficit": rep.max_deficit}
    sign_table = argmax.sign_table
    r_nonpositive = sign_table.r_certs != exact.SignCert.POSITIVE.value
    payload = {
        "d": cfg.d, "m_max": cfg.m_max, "eps": cfg.eps,
        "argmax": {"cells": statuses, "violations": argmax.n_violations,
                   "ties": argmax.n_ties,
                   "all_equal_optimal": bool(all(c.equals_optimal for c in argmax.cells))},
        "bellman": {"sampled": len(rng_gaps), "max_gap": max(rng_gaps),
                    "all_nonpositive_within_slack": bool(max(rng_gaps) <= 4 * cfg.eps * cfg.m_max)},
        "dominance": dominance,
        "sign_tables": {
            "undetermined_cells": len(sign_table.undetermined_cells()),
            "r_nonpositive_rows": [int(i) + 1 for i in np.flatnonzero(r_nonpositive.any(axis=1))],
        },
    }
    _emit(cfg, "verify", payload)


def _cmd_validate_marginals(cfg: ExperimentConfig):
    _require(cfg, "d", "n", "strategy")
    report = simulate.validate_marginals(Strategy(cfg.strategy),
                                         WalkParams(d=cfg.d, n=cfg.n),
                                         cfg.horizon, cfg.replicates, cfg.seed)
    payload = io.to_jsonable(report)
    payload["passed"] = report.passed
    _emit(cfg, "validate-marginals", payload)


# every flag once: option strings and argparse keywords, each dest a field
# of ExperimentConfig
_FLAGS = {
    "config": (["--config"], {"help": "JSON config file; flags win"}),
    "out": (["--out"], {"help": "output file (default: stdout)"}),
    "format": (["--format"], {"dest": "fmt", "choices": ["csv", "json"]}),
    "seed": (["--seed"], {"type": int}),
    "eps": (["--eps"], {"type": float, "help": "certified error bound"}),
    "workers": (["--workers"], {"type": int, "help": "replicate-chunk workers (default 1)"}),
    "d": (["--d"], {"type": int}),
    "n": (["--n"], {"type": int, "help": "coordinates"}),
    "m": (["--m"], {"type": int, "help": "start level (unmatched count)"}),
    "mmax": (["--mmax"], {"dest": "m_max", "type": int, "help": "highest start level"}),
    "strategy": (["--strategy"], {"choices": _STRATEGY_NAMES}),
    "replicates": (["--replicates", "-R"], {"type": int}),
    "horizon": (["--horizon", "-T"], {"type": float}),
    "samples": (["--samples"], {"type": int, "help": "random feasible rate schedules per cell"}),
    "theta": (["--theta"], {"type": float_list, "help": "comma-separated offsets"}),
    "d-list": (["--d-list"], {"type": int_list, "help": "comma-separated increasing d values"}),
    "t": (["--t"], {"dest": "t_values", "type": float_list,
                    "help": "comma-separated time points (overrides grid flags)"}),
    "t-start": (["--t-start"], {"type": float}),
    "t-stop": (["--t-stop"], {"type": float}),
    "t-points": (["--t-points"], {"type": int}),
    "t-spacing": (["--t-spacing"], {"choices": ["linear", "log"]}),
}
_GRID = "t t-start t-stop t-points t-spacing"

# subcommand: (help, the flags its handler reads, handler)
_COMMANDS = {
    "simulate": ("empirical survival curve of a coupling",
                 f"d m strategy replicates format seed workers {_GRID}", _cmd_simulate),
    "exact": ("certified tail probabilities of the optimum", f"d m mmax format eps {_GRID}",
              _cmd_exact),
    "laplace": ("exact transforms and identities", "d m", _cmd_laplace),
    "mean-tau": ("exact expected coupling times and bounds", "d m n", _cmd_mean_tau),
    "tv": ("exact total-variation distance from uniform", f"d n format {_GRID}", _cmd_tv),
    "cutoff": ("TV cutoff profile vs the normal asymptotic", "d n theta format", _cmd_cutoff),
    "limit": ("large-d limiting tail and convergence gaps", f"n d-list format eps {_GRID}",
              _cmd_limit),
    "verify": ("optimality certification report",
               f"d mmax replicates samples seed eps workers {_GRID}", _cmd_verify),
    "validate-marginals": ("chi-square marginal-law checks",
                           "d n strategy horizon replicates seed", _cmd_validate_marginals),
}

# flags that read differently on one subcommand
_VARIANTS = {
    ("simulate", "m"): (["--m", "--m0"], _FLAGS["m"][1]),
    ("validate-marginals", "strategy"):
        (["--strategy"], {"choices": ["optimal", "independent", "synchronous"]}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cowalk",
        description="Couplings of random walks on products of complete graphs",
    )
    parser.add_argument("--version", action="version", version=f"cowalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names.split() + ["config", "out"]:
            opts, kwargs = _VARIANTS.get((command, name), _FLAGS[name])
            p.add_argument(*opts, **kwargs)
    return parser


def _attach_theta_value(argv: list[str]) -> list[str]:
    """Rewrite ``--theta -1,0,1`` as ``--theta=-1,0,1``.

    argparse reads a value that starts with '-' and is not a single number
    as an option flag, so a list of offsets led by a negative one would be
    refused.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--theta" and re.match(r"-\.?\d", tok):
            out[-1] = f"--theta={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_theta_value(argv))
    try:
        cfg = _build_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: invalid configuration: {err}", file=sys.stderr)
        return 2
    try:
        _COMMANDS[args.command][2](cfg)
    except AssertionError as err:
        print(f"error: internal assertion failed: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, ValueError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
