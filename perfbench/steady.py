#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload campaign --seeds 1 2 3 4 5

For every end-to-end metric it prints the median of the runs and the
quartile spread ``(Q3 - Q1) / median`` (``statistics.quantiles(n=4)``)
next to the metric's bound from ``BENCHMARK.json``, and flags every
spread, ``setup_s``'s too, that reaches a third of its bound.  Runs
go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from common import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = ap.parse_args(argv)

    values = {name: [] for name, *_ in spec.END_TO_END}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, timeout=300)
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:], sep="\n")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()),
              flush=True)
        for k in values:
            values[k].append(row[k])
    if len(args.seeds) < 2:
        return 0
    for name, unit, _better, bound in spec.END_TO_END:
        xs = values[name]
        spread = quartile_spread(xs)
        flag = "" if spread < bound / 3 else \
            ("  above bound/3" if spread <= bound else "  ABOVE BOUND")
        print(f"{name:<18} median {median(xs):.4g} {unit:<5}"
              f" spread {spread:.3f} (bound {bound}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
