"""Run one cowalk command line with the benchmark's span wrappers installed.

Usage: python3 perfbench/clitrace.py --trace-out SPANS.json --op NAME -- ARGS...

Behaves like ``python -m cowalk.cli ARGS...`` (same output, same exit code)
and writes the command's spans to SPANS.json on exit.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--op", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(ROOT / "src"))
    import cowalk.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = args.op
    try:
        return cowalk.cli.main(argv)
    finally:
        tracer.op = None
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
