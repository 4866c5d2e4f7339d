"""cowalk benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {certify,simulate,asymptotic,cli} \
        --seed N --seconds S --trace {0,1} [--tiny]

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each pass runs the workload's
fixed list of operations once, one at a time (a single closed-loop client),
in one fresh worker interpreter (``worker.py``) or, for ``cli``, one fresh
``python -m cowalk.cli`` per README command; a ``cli`` pass then runs its
slowest command twice more (``op_latency``).  Passes repeat while another
one fits in ``--seconds``; there is always at least one.

Every process that runs operations gets an address-space cap (RLIMIT_AS,
set on that process only) and every operation a time budget.  An op that
breaches either is recorded as failed; its worker is killed or exits, and a
new worker runs the remaining ops.  Outputs are checked outside the timed
region (``checks.py``, ``clicmds.py``).  Ops listed in ``ledger.json`` fail
at the commit the benchmark was written against; they stay in the workloads.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs one
traced pass (spans from ``tracing.py``), asserts its outputs equal the
untraced pass's bit for bit, and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
This orchestrator imports only the standard library, so its own memory
stays small next to the workers it measures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import clicmds  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

MEM_CAP_BYTES = 1 << 30  # RLIMIT_AS per op-running process; largest passing op peaks near 710 MB
OP_BUDGET_S = 30.0
SETUP_BUDGET_S = 60.0
RUN_DEADLINE_S = 120.0  # ops not started by then are recorded as failed
SETUP_SAMPLES = 3
CLI_REPEATS = 2  # extra runs of a cli pass's slowest command (op_latency)

OP_NAMES = {
    "certify": [f"{kind}.d{d}" for d in (3, 4, 10) for kind in ("laplace", "rdiff", "argmax")],
    "simulate": ["lumped.optimal", "lumped.independent", "lumped.optimal.w2",
                 "survival.optimal", "dominance.independent", "dominance.synchronous",
                 "dominance.pairwise-classic", "marginals.optimal", "marginals.independent"],
    "asymptotic": ["tv.n1e4", "tv.n1e6", "stationary.n100", "stationary.n300",
                   "stationary.n700", "stationary.n1000", "mean.n400", "mean.n1e6"],
    "cli": [name for name, _, _ in clicmds.COMMANDS],
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    names = [f"op.{w}.{op}.s" for w, ops in OP_NAMES.items() for op in ops]
    names += [f"{span}.{kind}" for span, kinds in tracing.SPAN_METRICS.items()
              for kind in kinds]
    names += list(tracing.COUNTERS)
    names += ["simulate.workers.speedup", "tvcutoff.tv.max_abs_err", "import.total_s",
              "import.scipy_stats_s", "cli.exit_nonzero", "io.artifact_bytes",
              "trace.overhead_s", "failed_ratio", "calibration.kernel_s"]
    units = {}
    for name in names:
        if name.endswith(("_s", ".s")):
            units[name] = "s"
        elif name.endswith("_mb"):
            units[name] = "MB"
        elif name.endswith(("bytes_computed", "artifact_bytes")):
            units[name] = "B"
        elif name.endswith(("speedup", "err", "ratio")):
            units[name] = "1"
        else:
            units[name] = "count"
    return units


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("COWALK_WORKERS", None)  # thread fan-out is set per op, not inherited
    return env


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


class SetupError(RuntimeError):
    pass


class Worker:
    """A worker.py process and its line protocol, with timeouts."""

    def __init__(self, workload: str, seed: int, size: str, trace_out: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--size", size]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        before = speed.calibrate()
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, preexec_fn=cap_memory)
        self._buf = b""
        ready = self._read(SETUP_BUDGET_S)
        # (measured seconds, kernel times before and after); run.py scales
        # all set-ups of a run by one factor from all their kernel times
        self.setup = (time.perf_counter() - start, [before, speed.calibrate()])
        if not ready or not ready.get("ready"):
            self.kill()
            raise SetupError(f"{workload} worker did not start (exit code {self.proc.returncode})")
        self.ops = ready["ops"]
        self.finished: dict = {}

    def _read(self, timeout: float) -> dict | None:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, msg: dict, timeout: float) -> dict | None:
        try:
            self.proc.stdin.write((json.dumps(msg) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._read(timeout)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def finish(self) -> None:
        self.finished = self.request({"cmd": "finish"}, SETUP_BUDGET_S) or {}
        self.kill(grace_s=10.0)

    def kill(self, grace_s: float = 0.0) -> None:
        try:
            self.proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def worker_pass(workload: str, seed: int, size: str, deadline: float,
                trace_dir: Path | None = None) -> dict:
    """One pass of an in-process workload; a breach restarts the worker."""
    results, dumps, spans_files = [], [], []
    finished: dict = {}

    def start() -> Worker:
        spans = None
        if trace_dir is not None:
            spans = trace_dir / f"{workload}-spans-{len(spans_files)}.json"
            spans_files.append(spans)
        return Worker(workload, seed, size, spans)

    worker = start()
    setup, names = worker.setup, worker.ops
    for name in names:
        if worker is None:
            worker = start()
        if time.perf_counter() > deadline:
            results.append({"op": name, "seconds": 0.0, "status": "time",
                            "info": {"error": "run deadline passed before the op started"}})
            continue
        reply = worker.request({"cmd": "run", "op": name}, OP_BUDGET_S)
        if reply is None:
            status = "time" if worker.alive() else "died"
            reply = {"op": name, "seconds": OP_BUDGET_S if status == "time" else 0.0,
                     "status": status, "info": {"error": f"worker {status} during the op"}}
            worker.kill()
            worker = None
        elif reply["status"] == "memory":
            reply["info"] = {"error": "MemoryError under the address-space cap"}
            worker.kill()
            worker = None
        results.append(reply)
    if worker is not None:
        worker.finish()
        finished = worker.finished
    dumps = [json.loads(p.read_text()) for p in spans_files if p.exists()]
    normalize(results)
    return {"setup": setup, "ops": results, "dumps": dumps, "finished": finished}


def normalize(results: list[dict]) -> None:
    """Convert op times to reference seconds (speed.py), each from the
    kernel times around the op and its neighbours."""
    cals = [r.get("cal", []) for r in results]
    for i, r in enumerate(results):
        window = [c for around in cals[max(0, i - 1):i + 2] for c in around]
        r["factor"] = speed.factor(window) if window else 1.0
        r["raw_seconds"] = r["seconds"]
        r["seconds"] *= r["factor"]


def run_command(name, argv, check, workdir: Path, spans: Path | None = None) -> dict:
    """One README command in a fresh interpreter in ``workdir``, timed from
    here and checked after; the files it writes are removed after."""
    cmd = [sys.executable, "-m", "cowalk.cli", *argv]
    if spans is not None:
        cmd = [sys.executable, str(HERE / "clitrace.py"), "--trace-out", str(spans),
               "--op", name, "--", *argv]
    before = speed.calibrate()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, preexec_fn=cap_memory)
    try:
        out, err = proc.communicate(timeout=OP_BUDGET_S)
        status = None
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        status = "time"
    seconds = time.perf_counter() - start
    cal = [before, speed.calibrate()]
    files = {p.name: p.read_bytes() for p in workdir.iterdir()}
    artifacts = [files[a] for a in clicmds.ARTIFACTS if a in files]
    info = {"returncode": proc.returncode}
    if status is None and proc.returncode != 0:
        status = "exit"
        info["stderr"] = err.decode(errors="replace").strip().splitlines()[-1:]
    elif status is None:
        try:
            ok, extra = check(out.decode(), files)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            ok, extra = False, {"check_error": repr(exc)}
        status = "ok" if ok else "check"
        info.update(extra)
    digest = hashlib.sha256(b"\0".join([str(proc.returncode).encode(), out, *artifacts]))
    for p in workdir.iterdir():
        p.unlink()
    return {"op": name, "seconds": seconds, "status": status, "info": info,
            "digest": digest.hexdigest(), "cal": cal,
            "bytes": len(out) + sum(len(a) for a in artifacts)}


def cli_pass(deadline: float, trace_dir: Path | None = None) -> dict:
    """The README commands, each in a fresh interpreter in a temp directory.
    An untraced pass then runs its slowest command CLI_REPEATS more times
    (``op_latency``).  All times of the pass are scaled by one factor from
    all its kernel times (``speed.pass_factor``): the kernel runs in this
    process, so kernel times next to one command say little about that
    command's speed, but over the whole pass they follow the machine's."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    results, dumps, cals = [], [], []
    try:
        for name, argv, check in clicmds.COMMANDS:
            if time.perf_counter() > deadline:
                results.append({"op": name, "seconds": 0.0, "status": "time",
                                "info": {"error": "run deadline passed before the op started"}})
                continue
            spans = None if trace_dir is None else trace_dir / f"cli-{name}-spans.json"
            results.append(run_command(name, argv, check, workdir, spans))
            if spans is not None and spans.exists():
                dumps.append(json.loads(spans.read_text()))
        slowest = max(results, key=lambda r: r["seconds"])
        if trace_dir is None and slowest["status"] == "ok":
            argv, check = next((a, c) for n, a, c in clicmds.COMMANDS if n == slowest["op"])
            slowest["repeats"] = []
            for _ in range(CLI_REPEATS):
                if time.perf_counter() > deadline:
                    break
                again = run_command(slowest["op"], argv, check, workdir)
                cals += again["cal"]
                if (again["status"], again["digest"]) != ("ok", slowest["digest"]):
                    slowest["status"] = "check"
                    slowest["info"]["repeat_differs"] = again["info"]
                    break
                slowest["repeats"].append(again["seconds"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cals += [c for r in results for c in r.get("cal", ())]
    scale = speed.pass_factor(cals) if cals else 1.0
    for r in results:
        r["factor"], r["raw_seconds"] = scale, r["seconds"]
        r["seconds"] *= scale
        if "repeats" in r:
            r["raw_repeats"] = r["repeats"]
            r["repeats"] = [t * scale for t in r["repeats"]]
    return {"setup": None, "ops": results, "dumps": dumps, "finished": {},
            "artifact_bytes": sum(r.get("bytes", 0) for r in results)}


def run_pass(workload, seed, size, deadline, trace_dir=None) -> dict:
    if workload == "cli":
        return cli_pass(deadline, trace_dir)
    return worker_pass(workload, seed, size, deadline, trace_dir)


def setup_probe(workload: str, seed: int, size: str) -> Worker:
    """Start a fresh worker (import and input generation) and stop it."""
    worker = Worker(workload, seed, size)
    worker.finish()
    return worker


def import_times() -> tuple[float, float]:
    """(import cowalk + cowalk.cli, of which scipy.stats) in seconds, from
    ``python -X importtime`` in a fresh interpreter.  scipy loads
    ``scipy.stats`` lazily, so the log may lack the package's own line; its
    cost is then the sum over its shallowest-listed submodules."""
    before = speed.calibrate()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cowalk, cowalk.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=SETUP_BUDGET_S, preexec_fn=cap_memory)
    scale = speed.factor([before, speed.calibrate()])
    total, stats = 0.0, {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].strip()
        depth = len(fields[2]) - len(fields[2].lstrip())
        seconds = int(fields[1]) / 1e6 * scale
        if depth == 1 and name in ("cowalk", "cowalk.cli"):
            total += seconds
        if name == "scipy.stats" or name.startswith("scipy.stats."):
            stats.setdefault(depth, []).append(seconds)
    return total, sum(stats[min(stats)]) if stats else 0.0


# ---------------------------------------------------------------------------
# environment and verdicts


def _command(*cmd: str) -> str | None:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, finished: dict) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    mem_kb = next(int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
                  if line.startswith("MemTotal"))
    top = _command("git", "rev-parse", "--show-toplevel")
    commit = _command("git", "rev-parse", "HEAD") if top and Path(top) == ROOT else None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cowalk").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "l2_bytes": _command("getconf", "LEVEL2_CACHE_SIZE"),
        "l3_bytes": _command("getconf", "LEVEL3_CACHE_SIZE"),
        "ram_mb": mem_kb // 1024,
        "versions": finished.get("versions"), "backend": finished.get("backend"),
        "git_commit": commit or "unavailable (not a git checkout)",
        "src_sha256": src.hexdigest(), "seed": seed,
        "op_budget_s": OP_BUDGET_S, "memory_cap_bytes": MEM_CAP_BYTES,
        "memory_cap_kind": "RLIMIT_AS", "run_deadline_s": RUN_DEADLINE_S,
    }


def verdict(workload: str, result: dict, ledger: dict) -> str:
    """pass, fixed (a ledger op that now passes), known (fails as recorded)
    or unexpected."""
    entry = ledger.get(f"{workload}.{result['op']}")
    if result["status"] == "ok":
        return "fixed" if entry else "pass"
    if entry and entry["fails_by"] == result["status"]:
        return "known"
    return "unexpected"


def pass_wall(p: dict) -> float:
    return sum(r["seconds"] for r in p["ops"])


def op_latency(r: dict) -> float:
    """An op's time: the median over its runs.  Only a cli pass's slowest
    command runs more than once; there every run is a fresh process, so the
    repeats are identical, independent samples of one latency."""
    return statistics.median([r["seconds"], *r.get("repeats", ())])


def report_ops(label: str, workload: str, p: dict, ledger: dict) -> None:
    for r in p["ops"]:
        repeats = f" repeats {[round(t, 3) for t in r['repeats']]}" if r.get("repeats") else ""
        print(f"{label} op {workload}.{r['op']:<28} {r['seconds']:9.3f} s  {r['status']:<6} "
              f"{verdict(workload, r, ledger):<10} {json.dumps(r.get('info', {}))}{repeats}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(OP_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, same ops and metrics (smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cowalk" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cowalk'}", file=sys.stderr)
        return 2
    ledger = json.loads((HERE / "ledger.json").read_text())["ops"]
    size = "tiny" if args.tiny else "full"
    workload = args.workload
    OUT.mkdir(exist_ok=True)

    t_start = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S
    passes = []
    try:
        while True:
            passes.append(run_pass(workload, args.seed, size, deadline))
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(passes) + 1) / len(passes) > min(args.seconds, RUN_DEADLINE_S / 2):
                break
        starts = [p["setup"] for p in passes if p["setup"] is not None]
        probes = [setup_probe(workload, args.seed, size)
                  for _ in range(SETUP_SAMPLES - len(starts))]
        starts += [probe.setup for probe in probes]
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if [r["op"] for r in passes[0]["ops"]] != OP_NAMES[workload]:
        print(f"error: {workload} ran {[r['op'] for r in passes[0]['ops']]}, "
              f"expected {OP_NAMES[workload]}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    walls = [pass_wall(p) for p in passes]
    scale = speed.factor([c for _, cals in starts for c in cals])
    metrics = {
        "setup_s": statistics.median(raw * scale for raw, _ in starts),
        "wall_s": statistics.median(walls),
        "slowest_op_s": statistics.median(max(op_latency(r) for r in p["ops"]) for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    all_passes = list(passes)
    mismatches = []

    if args.trace:
        trace_dir = OUT / f"{workload}-trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        try:
            traced = run_pass(workload, args.seed, size, deadline, trace_dir)
        except SetupError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        all_passes.append(traced)
        for a, b in zip(passes[0]["ops"], traced["ops"]):
            if (a["status"], a.get("digest")) != (b["status"], b.get("digest")):
                mismatches.append(a["op"])
        layer = dict.fromkeys(per_layer_units(), 0.0)
        for name in OP_NAMES[workload]:
            layer[f"op.{workload}.{name}.s"] = statistics.median(
                op_latency(next(r for r in p["ops"] if r["op"] == name)) for p in passes)
        layer.update(tracing.summarize(
            traced["dumps"], {r["op"]: r["factor"] for r in traced["ops"]}))
        first = {r["op"]: r for r in passes[0]["ops"]}
        if workload == "simulate" and layer["op.simulate.lumped.optimal.w2.s"] > 0:
            layer["simulate.workers.speedup"] = (layer["op.simulate.lumped.optimal.s"]
                                                 / layer["op.simulate.lumped.optimal.w2.s"])
        if workload == "asymptotic":
            layer["tvcutoff.tv.max_abs_err"] = max(
                first[n].get("info", {}).get("max_abs_err", 0.0) for n in ("tv.n1e4", "tv.n1e6"))
        if workload == "cli":
            layer["cli.exit_nonzero"] = sum(r["status"] == "exit" for r in passes[0]["ops"])
            layer["io.artifact_bytes"] = passes[0]["artifact_bytes"]
        layer["import.total_s"], layer["import.scipy_stats_s"] = import_times()
        layer["trace.overhead_s"] = pass_wall(traced) - metrics["wall_s"]
        attempted_all = sum(len(p["ops"]) for p in all_passes)
        layer["failed_ratio"] = sum(r["status"] != "ok" for p in all_passes
                                    for r in p["ops"]) / attempted_all
        layer["calibration.kernel_s"] = statistics.median(
            c for p in passes for r in p["ops"] for c in r.get("cal", ()))
        metrics = layer
        units = per_layer_units()

    finished = next((f for f in [p["finished"] for p in all_passes]
                     + [probe.finished for probe in probes] if f), {})
    env = environment(args.seed, finished)
    print("env " + json.dumps(env, sort_keys=True))
    for k, p in enumerate(passes):
        report_ops(f"pass{k}", workload, p, ledger)
    if args.trace:
        report_ops("traced", workload, all_passes[-1], ledger)
        print(f"traced outputs equal untraced: {not mismatches} {mismatches}")
        missing = sorted({m for d in all_passes[-1]["dumps"] for m in d["missing"]})
        print(f"trace targets missing from the package: {missing}")
    verdicts = [verdict(workload, r, ledger) for p in all_passes for r in p["ops"]]
    failed = verdicts.count("unexpected")
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]!r} {units[name]}")
    record = {
        "correct": failed == 0 and not mismatches,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    (OUT / f"{workload}-trace{args.trace}.json").write_text(json.dumps(
        {**record, "env": env, "passes": [p["ops"] for p in all_passes]}, indent=1))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
