#!/usr/bin/env python3
"""Start ``repro serve`` with the layer wrappers installed.

Usage (the benchmark spawns this for its traced serve run):

    python3 perfbench/serve_launcher.py SPANS_OUT [repro serve args...]

The wrappers of :mod:`tracing` are installed before the server is
built, so every request's parse, cache, batcher and compute calls are
recorded in this process.  On SIGINT the server shuts down as usual and
the spans and counts are written to ``SPANS_OUT``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracing import Tracer, check_aliasing  # noqa: E402


def main() -> int:
    spans_out, serve_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer("time").install()
    check_aliasing()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
