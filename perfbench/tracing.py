"""Spans recorded from outside the package, by wrapping its functions.

``install`` replaces each function named in ``TARGETS`` with a pass-through
wrapper, in every loaded ``cowalk`` module that binds the name (so calls
through ``cowalk.X``, ``exact.X`` and ``from .exact import X`` are all seen).
A wrapper records a span (name, start, end, parent, op) and, for some
layers, counts read from the call's arguments and return value.  Spans stay
in memory until ``Tracer.dump`` writes them out.  A target the package no
longer has is skipped and reports zero calls.

``summarize`` turns dumped spans into per-layer metrics.  A span's self time
is its duration minus the part of it covered by its child spans (children
can overlap when they run on worker threads).  Importing this module needs
only the standard library.
"""
from __future__ import annotations

import importlib
import json
import sys
import threading
import time
import tracemalloc


def _count_routes(args, kwargs, table):
    from checks import sign_routes

    return {f"cells_{route}": n for route, n in sign_routes(table).items()}


def _count_terms(args, kwargs, table):
    return {"term_cells": table.n_terms * (table.m_max + 1) * len(table.t_grid)}


def _count_lumped(args, kwargs, result):
    import numpy as np

    total, p2, _m0, _t_max, u_exp, u_jump = args
    tau, njumps = result
    arrays = (np.asarray(total), np.asarray(p2), u_exp, u_jump, tau, njumps)
    return {"replicates": u_exp.shape[0], "jumps": int(njumps.sum()),
            "censored": int(np.isinf(tau).sum()),
            "bytes_computed": sum(a.nbytes for a in arrays)}


def _count_event(args, kwargs, result):
    ev_count, offsets, u = args[5:8]
    xchg, ychg = result[:2]
    return {"events": int(ev_count.sum()), "moves": int(xchg.sum() + ychg.sum()),
            "bytes_computed": u.nbytes + ev_count.nbytes + offsets.nbytes
            + sum(a.nbytes for a in result)}


def _count_point(args, kwargs, result):
    return {"points": 1}


def _count_cells(args, kwargs, report):
    return {"cells": len(report.cells)}


# (module, function, span name, counter function)
TARGETS = [
    ("cowalk.ratfun", "poly_gcd", "ratfun.gcd", None),
    ("cowalk.exact", "laplace_V", "exact.transform", None),
    ("cowalk.exact", "laplace_R", "exact.transform", None),
    ("cowalk.exact", "r_diff_table", "exact.certify", _count_routes),
    ("cowalk.exact", "survival_table", "exact.uniformize", _count_terms),
    ("cowalk.exact", "survival_exact", "exact.survival_exact", None),
    ("cowalk.exact", "expected_tau", "exact.mean", None),
    ("cowalk._kernels", "lumped_batch", "kernels.lumped", _count_lumped),
    ("cowalk._kernels", "marginal_batch", "kernels.event", _count_event),
    ("cowalk.simulate", "sample_coupling_times", "simulate.sample", None),
    ("cowalk.simulate", "estimate_survival", "simulate.survival", None),
    ("cowalk.simulate", "validate_marginals", "simulate.validate", None),
    ("cowalk.tvcutoff", "tv_exact", "tvcutoff.tv", _count_point),
    ("cowalk.tvcutoff", "survival_from_stationary", "tvcutoff.stationary", None),
    ("cowalk.tvcutoff", "mean_tau_stationary", "tvcutoff.mean", None),
    ("cowalk.optimality", "verify_argmax_grid", "optimality.argmax", _count_cells),
    ("cowalk.optimality", "bellman_gap", "optimality.bellman", None),
    ("cowalk.optimality", "dominance_test", "optimality.dominance", None),
]

# span whose wrapper also records the traced (tracemalloc) peak allocation
PEAK_SPAN = "simulate.survival"

# metrics emitted per span name: "calls" is the span count, "busy_s" and
# "self_s" are both summed self time (the names follow the layer tables)
SPAN_METRICS = {
    "ratfun.gcd": ("calls", "busy_s"),
    "exact.transform": ("calls", "busy_s"),
    "exact.certify": ("busy_s",),
    "exact.uniformize": ("calls", "busy_s"),
    "exact.mean": ("calls", "busy_s"),
    "kernels.lumped": ("busy_s",),
    "kernels.event": ("busy_s",),
    "simulate.sample": ("self_s",),
    "simulate.survival": ("self_s",),
    "simulate.validate": ("self_s",),
    "tvcutoff.tv": ("busy_s",),
    "tvcutoff.stationary": ("self_s",),
    "tvcutoff.mean": ("busy_s",),
    "optimality.argmax": ("busy_s",),
    "optimality.bellman": ("calls", "busy_s"),
    "optimality.dominance": ("self_s",),
}

COUNTERS = (
    "exact.certify.cells_direct", "exact.certify.cells_exact",
    "exact.certify.cells_zero", "exact.certify.cells_undetermined",
    "exact.uniformize.term_cells",
    "kernels.lumped.replicates", "kernels.lumped.jumps", "kernels.lumped.censored",
    "kernels.lumped.bytes_computed",
    "kernels.event.events", "kernels.event.moves", "kernels.event.bytes_computed",
    "simulate.survival.peak_mb",
    "tvcutoff.tv.points",
    "optimality.argmax.cells",
)


class Tracer:
    """In-memory span store.  Spans opened on a worker thread with no open
    span of their own take the main thread's innermost span as parent."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.op: str | None = None
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def _open(self, name: str) -> int:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            parent_stack = stack or self._stacks.get(self._main, [])
            parent = parent_stack[-1] if parent_stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.op])
            index = len(self.spans) - 1
            stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index][2] = end
            self._stacks[threading.get_ident()].pop()

    def count(self, name: str, increments: dict, peak: bool = False) -> None:
        with self._lock:
            for key, value in increments.items():
                full = f"{name}.{key}"
                old = self.counters.get(full, 0)
                self.counters[full] = max(old, value) if peak else old + value

    def wrap(self, fn, name: str, counter=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:  # outside an op, e.g. inside an output check
                return fn(*args, **kwargs)
            index = tracer._open(name)
            measure = name == PEAK_SPAN and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(index)
            if measure:
                tracer.count(name, {"peak_mb": peak / 2**20}, peak=True)
            if counter is not None:
                tracer.count(name, counter(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded cowalk module that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cowalk" or key.startswith("cowalk."))]
        for module_name, attr, span, counter in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, span, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "missing": self.missing}, fh)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, factors=None) -> dict[str, tuple[int, float]]:
    """{span name: (calls, summed self time)} for one dump's spans, each
    span's time scaled by ``factors[op]`` (default 1)."""
    children: dict[int, list] = {}
    for name, start, end, parent, _op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[int, float]] = {}
    for index, (name, start, end, _parent, op) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        own = (end - start) - _covered([iv for iv in clipped if iv[1] > iv[0]])
        own *= (factors or {}).get(op, 1.0)
        calls, busy = out.get(name, (0, 0.0))
        out[name] = (calls + 1, busy + own)
    return out


def summarize(dumps, factors) -> dict[str, float]:
    """Per-layer metrics from several dumps (one per traced process), with
    times in reference seconds (``factors``: op name -> speed factor)."""
    metrics = {name: 0.0 for name in COUNTERS}
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            metrics[f"{span}.{kind}"] = 0.0
    for dump in dumps:
        for span, (calls, busy) in self_times(dump["spans"], factors).items():
            for kind in SPAN_METRICS.get(span, ()):
                metrics[f"{span}.{kind}"] += calls if kind == "calls" else busy
        for key, value in dump["counters"].items():
            if key == f"{PEAK_SPAN}.peak_mb":
                metrics[key] = max(metrics[key], value)
            elif key in metrics:
                metrics[key] += value
    return metrics
