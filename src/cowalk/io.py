"""Readers and writers for the tabular output schemas.

Formats (CSV columns):
  survival:   t,value,half_width_95,half_width_3sigma,replicates
  tail table: m, then one column per grid time
  cutoff:     theta,T_d,t,tv_exact,tv_asymptotic

Writers take an open text stream.  CSV has LF line ends and floats in
shortest round-trip repr, so identical inputs give byte-identical files;
run metadata (which includes a timestamp) goes to a separate
``<name>.meta.json`` sidecar.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import platform
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .exact import TailTable
from .simulate import SurvivalCurve
from .tvcutoff import CutoffPoint

__all__ = [
    "write_csv",
    "write_survival_csv",
    "read_survival_csv",
    "write_tail_csv",
    "read_tail_csv",
    "write_cutoff_csv",
    "read_cutoff_csv",
    "to_jsonable",
    "write_json",
    "write_metadata",
]


def _fmt(x) -> str:
    return repr(float(x))


def write_csv(fh, header, rows) -> None:
    """Header and rows as CSV with LF line ends: integer cells as they are,
    every other cell in shortest round-trip float repr."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([v if isinstance(v, (int, np.integer)) else _fmt(v) for v in row])


def write_survival_csv(curve: SurvivalCurve, fh) -> None:
    cols = (curve.t_grid, curve.value, curve.half_width_95, curve.half_width_3sigma)
    write_csv(fh, ["t", "value", "half_width_95", "half_width_3sigma", "replicates"],
              ((*row, curve.replicates) for row in zip(*cols)))


def read_survival_csv(path) -> SurvivalCurve:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    get = lambda key: np.array([float(r[key]) for r in rows])
    return SurvivalCurve(t_grid=get("t"), value=get("value"),
                         half_width_95=get("half_width_95"),
                         half_width_3sigma=get("half_width_3sigma"),
                         replicates=int(rows[0]["replicates"]) if rows else 0)


def write_tail_csv(table: TailTable, fh) -> None:
    write_csv(fh, ["m"] + [f"t={_fmt(t)}" for t in table.t_grid],
              ([m, *table.values[m]] for m in range(table.m_max + 1)))


def read_tail_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (t_grid, values[m, j])."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    t_grid = np.array([float(h.removeprefix("t=")) for h in rows[0][1:]])
    values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return t_grid, values


def write_cutoff_csv(points: list[CutoffPoint], fh) -> None:
    write_csv(fh, ["theta", "T_d", "t", "tv_exact", "tv_asymptotic"],
              ((p.theta, p.cutoff, p.t, p.tv_exact, p.tv_asymptotic) for p in points))


def read_cutoff_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def to_jsonable(obj):
    """Recursively convert package objects to JSON-encodable structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, Fraction):
        return {"numerator": str(obj.numerator), "denominator": str(obj.denominator)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return str(obj)
    return obj


def write_json(obj, fh) -> None:
    json.dump(to_jsonable(obj), fh, indent=2, sort_keys=True)
    fh.write("\n")


def write_metadata(out_path, command: str, params: dict, seed) -> Path:
    """Run-metadata sidecar next to an artifact file."""
    from . import __version__

    path = Path(str(out_path) + ".meta.json")
    record = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "version": __version__,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(path, "w") as fh:
        write_json(record, fh)
    return path
