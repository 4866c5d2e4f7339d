"""One fresh interpreter that runs a workload's operations for run.py.

Protocol: one JSON object per line.  The worker imports ``cowalk`` and
``cowalk.cli`` from the checkout's ``src``, builds the workload's inputs
from the seed and announces ``{"ready": ...}``; it then answers
``{"cmd": "run", "op": name}`` with the op's time (checks excluded), the
calibration kernel's time just before and after it (``speed.py``), status,
check info and output digest, and ``{"cmd": "finish"}`` by writing its spans
(traced workers only) and exiting.  Replies go to a duplicate of the original
stdout; anything the package prints goes to stderr.

After a MemoryError (the address-space cap set by run.py) the worker
reports the op and exits, since its heap may be fragmented; run.py starts a
new worker for the remaining ops.
"""
from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from speed import calibrate

ROOT = Path(__file__).resolve().parent.parent


def canonical(obj, h) -> None:
    """Feed a type-tagged, bit-exact encoding of ``obj`` into hash ``h``."""
    import numpy as np

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            canonical(getattr(obj, f.name), h)
    elif isinstance(obj, np.ndarray):
        if obj.dtype == object:
            canonical(obj.tolist(), h)
        else:
            h.update(f"{obj.dtype.str}{obj.shape}".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            canonical(item, h)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            canonical(key, h)
            canonical(obj[key], h)
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    elif isinstance(obj, enum.Enum):
        canonical(obj.value, h)
    elif isinstance(obj, (int, np.integer, str, bool, Fraction)) or obj is None:
        h.update(f"{type(obj).__name__}:{obj}".encode())
    else:  # package objects without dataclass fields, e.g. RationalFn
        h.update(f"{type(obj).__name__}:{obj!r}".encode())
    h.update(b";")


def digest(obj) -> str:
    h = hashlib.sha256()
    canonical(obj, h)
    return h.hexdigest()


def jsonable(info: dict) -> dict:
    return json.loads(json.dumps(info, default=lambda v: v.item() if hasattr(v, "item")
                                 else str(v)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(msg):
        proto.write(json.dumps(msg) + "\n")

    sys.path.insert(0, str(ROOT / "src"))
    import cowalk
    import cowalk.cli  # noqa: F401  (part of the measured set-up)

    src = (ROOT / "src").resolve()
    if not Path(cowalk.__file__).resolve().is_relative_to(src):
        print(f"error: cowalk imported from {cowalk.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    if args.workload == "cli":
        from clicmds import COMMANDS
        op_list = []
        names = [name for name, *_ in COMMANDS]
    else:
        import ops

        op_list = ops.build(args.workload, args.seed, args.size)
        names = [op.name for op in op_list]
    send({"ready": True, "ops": names})

    by_name = {op.name: op for op in op_list}
    done = {}
    for line in sys.stdin:
        req = json.loads(line)
        if req["cmd"] == "finish":
            break
        op = by_name[req["op"]]
        reply = {"op": op.name}
        before = calibrate()
        if tracer:
            tracer.op = op.name
        start = time.perf_counter()
        try:
            out = op.run()
            reply["seconds"] = time.perf_counter() - start
        except MemoryError:
            reply.update(seconds=time.perf_counter() - start, status="memory")
            reply["cal"] = [before, calibrate()]
            if tracer:
                tracer.op = None
                tracer.dump(args.trace_out)
            send(reply)
            return 0
        except Exception as err:  # a raising op is a failed op, not a crash
            reply.update(seconds=time.perf_counter() - start, status="raise",
                         info={"error": repr(err)}, cal=[before, calibrate()])
            send(reply)
            continue
        finally:
            if tracer:
                tracer.op = None
        reply["cal"] = [before, calibrate()]
        try:
            ok, info = op.check(out, done)
        except Exception as err:  # a check that cannot run rejects the output
            ok, info = False, {"check_error": repr(err)}
        done[op.name] = out
        reply.update(status="ok" if ok else "check", info=jsonable(info), digest=digest(out))
        send(reply)
    if tracer:
        tracer.dump(args.trace_out)
    import mpmath
    import numpy
    import scipy

    send({"finished": True, "backend": cowalk.backend_name(),
          "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__, "mpmath": mpmath.__version__,
                       "cowalk": cowalk.__version__}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
