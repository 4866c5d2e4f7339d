"""The cli workload: the README's nine command lines, verbatim, and their
output checks.  Standard library only (run.py uses it without numpy).

The commands are copied as text from README.md rather than read from it, so
a documentation edit cannot change the workload.  They carry no ``--seed``,
so the workload seed does not alter them; each runs with the CLI's default
seed 0.
"""
from __future__ import annotations

import csv
import io
import json
import math
import shlex

from levels import exact_means


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_exact(out: str, files: dict):
    ok = "1,0.36787944117144233" in out.splitlines()
    return ok, {"stated_value_printed": ok}


def check_simulate(out: str, files: dict):
    rows = _rows(files["curve.csv"].decode())
    values = [float(r["value"]) for r in rows]
    ok = (len(rows) == 40 and float(rows[0]["t"]) == 0.0 and float(rows[-1]["t"]) == 8.0
          and all(0.0 <= v <= 1.0 for v in values)
          and all(a >= b for a, b in zip(values, values[1:]))
          and "curve.csv.meta.json" in files)
    return ok, {"rows": len(rows)}


def check_laplace(out: str, files: dict):
    doc = json.loads(out)
    means = exact_means("optimal", 5, 3)
    stated = [lvl.get("expected_tau") for lvl in doc["levels"][1:]]
    ok = (all(doc["identities"].values()) and len(doc["levels"]) == 4
          and stated == [str(m) for m in means[1:]])
    return ok, {"identities": doc["identities"]}


def check_mean_tau(out: str, files: dict):
    doc = json.loads(out)
    ratio = doc["mean_tau_stationary_float"] / math.log(10000)
    ok = (doc["expected_tau"] == str(exact_means("optimal", 10, 2)[2])
          and doc["sandwich"]["holds"] and doc["in_half_to_one"] and 0.5 <= ratio <= 1.0)
    return ok, {"expected_tau": doc["expected_tau"], "ratio_to_log_n": ratio}


def check_tv(out: str, files: dict):
    ok = "0.0,0.6666666666666667" in out.splitlines()
    return ok, {"stated_value_printed": ok}


def check_cutoff(out: str, files: dict):
    rows = _rows(out)
    tv = [float(r["tv_exact"]) for r in rows]
    ok = ([float(r["theta"]) for r in rows] == [-1.0, 0.0, 1.0]
          and all(0.0 <= v <= 1.0 for v in tv) and tv[0] > tv[1] > tv[2])
    return ok, {"tv_exact": tv}


def check_limit(out: str, files: dict):
    doc = json.loads(out)
    ok = (len(doc["gaps"]) == 3 and doc["strictly_decreasing"]
          and all(0.0 <= v <= 1.0 for v in doc["limit_tail"]))
    return ok, {"sup_gaps": [g["sup_gap"] for g in doc["gaps"]]}


def check_verify(out: str, files: dict):
    doc = json.loads(files["report.json"])
    ok = (doc["argmax"]["violations"] == 0
          and doc["sign_tables"]["undetermined_cells"] == 0
          and doc["bellman"]["all_nonpositive_within_slack"]
          and all(d["passed"] for d in doc["dominance"].values())
          and "report.json.meta.json" in files)
    return ok, {"violations": doc["argmax"]["violations"],
                "undetermined": doc["sign_tables"]["undetermined_cells"]}


def check_marginals(out: str, files: dict):
    doc = json.loads(out)
    return doc["passed"] is True, {"passed": doc["passed"]}


README = [
    ("exact", "cowalk exact --d 2 --m 1 --t 0.5", check_exact),
    ("simulate", "cowalk simulate --d 4 --m 6 --strategy pairwise-classic "
                 "--replicates 100000 --t-start 0 --t-stop 8 --t-points 40 --out curve.csv",
     check_simulate),
    ("laplace", "cowalk laplace --d 5 --m 3", check_laplace),
    ("mean-tau", "cowalk mean-tau --d 10 --m 2 --n 10000", check_mean_tau),
    ("tv", "cowalk tv --d 3 --n 1 --t 0", check_tv),
    ("cutoff", "cowalk cutoff --d 5 --n 100000 --theta -1,0,1", check_cutoff),
    ("limit", "cowalk limit --n 5 --d-list 10,100,1000 --t-stop 12 --format json",
     check_limit),
    ("verify", "cowalk verify --d 4 --mmax 10 --out report.json", check_verify),
    ("validate-marginals",
     "cowalk validate-marginals --d 4 --n 5 --strategy optimal -T 10 -R 10000",
     check_marginals),
]

# (op name, argv after the program name, check)
COMMANDS = [(name, shlex.split(line)[1:], check) for name, line, check in README]

# files a command writes besides stdout; sidecars are excluded from
# io.artifact_bytes because they carry a timestamp and run metadata
ARTIFACTS = ("curve.csv", "report.json")
