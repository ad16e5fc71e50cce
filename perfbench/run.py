#!/usr/bin/env python3
"""Benchmark of the campaign engine and the schedule service.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 25 \\
        --trace 0

Workloads: ``campaign``, ``campaign_large``, ``serve_mixed`` (README.md
says why each exists); ``--workload all`` runs the three one after
another and prints one combined result line.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` is the separate traced run
that prints the per-layer self-time table and reports the per-layer
metrics.  Human-readable report lines come first; the last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Everything the run writes (compiled C kernel, caches, spans) goes under
``.bench_build/`` in the repository root.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

#: Fresh-process set-up probes per run: setup_s is their median.
SETUP_PROBES = 3
WORKLOADS = ("campaign", "campaign_large", "serve_mixed")


def _prepare_environment() -> None:
    """Keep every file the program writes inside the checkout."""
    for sub in ("home", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    # The C kernel compiles into ~/.cache/repro; tempfile honours TMPDIR.
    os.environ["HOME"] = str(WORK / "home")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    sys.path[:0] = [str(SRC), str(HERE)]
    import tempfile
    tempfile.tempdir = None  # re-read TMPDIR


def _probe_setups(workload: str, seed: int) -> list:
    """Launch-to-ready times of fresh processes doing the set-up.

    Timed here, from spawning the interpreter until the probe reports
    that its first timed operation could start: ``(wall_s, scaled_s)``
    per probe (see ``common.HostScale``).
    """
    import common

    samples = []
    for _ in range(SETUP_PROBES):
        scale = common.HostScale()
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--probe-setup", "--workload", workload,
                 "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - t0
            child.stdout.read()
        samples.append((wall, wall * scale.factor()))
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
    return samples


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one combined result line.

    Metric names are prefixed with the workload; ``correct`` holds only
    if it holds for every workload.
    """
    import json

    import common

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {out.returncode}",
                  file=sys.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v
                        for k, v in result["metrics"].items()})
    common.emit(correct, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    _prepare_environment()

    import common

    try:
        return _run(args)
    finally:
        common.stop_resource_tracker()


def _run(args: argparse.Namespace) -> int:
    """One workload (or ``all``) in this process; the result line."""
    import common

    if args.workload == "all":
        return _run_all(args)
    if not args.probe_setup:
        common.report(f"environment: {common.environment()}")
        speed_before = common.ref_loop_ms()
    if args.workload == "serve_mixed":
        import serve_mixed
        if args.trace:
            result = serve_mixed.run_traced(args.seed, args.seconds)
        else:
            result = serve_mixed.run(args.seed, args.seconds)
    else:
        import campaign
        inst = campaign.setup(args.workload, args.seed)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        if args.trace:
            result = campaign.run_traced(args.workload, args.seed,
                                         args.seconds, inst)
        else:
            result = campaign.run(
                args.workload, args.seed, args.seconds, inst,
                lambda: _probe_setups(args.workload, args.seed))
    common.report(f"host speed: reference loop {speed_before:.2f} ms "
                  f"before, {common.ref_loop_ms():.2f} ms after (reference "
                  f"host: {common.REF_MS:g} ms)")
    common.emit(*result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
