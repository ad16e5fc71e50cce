#!/usr/bin/env python
"""Kernel perf smoke: schedule build + full-ladder sweep + suite timing.

Measures the three hot-path costs the array-native schedule kernel
targets, on the same instances as
``benchmarks/bench_scheduler_scaling.py``:

* ``build_s`` — one ``list_schedule`` of an ``n``-task STG graph onto
  16 processors;
* ``sweep_s`` — evaluating the whole feasible DVS ladder (with the
  sleep model) on that schedule, via
  :func:`repro.core.energy.schedule_energy_sweep` when present and a
  per-point ``schedule_energy`` loop otherwise (so the script also runs
  on pre-kernel checkouts to produce comparable "before" numbers);
* ``paper_suite_s`` — the full six-heuristic suite (skipped for the
  largest sizes).

Timings are best-of-``reps`` ``perf_counter`` wall-clock.  With
``--baseline``, each metric is gated against the ``after`` section of a
committed baseline JSON (see ``BENCH_kernel_baseline.json``) with a
generous regression factor — CI catches order-of-magnitude slips, not
runner noise.

``--campaign`` switches to the campaign-throughput benchmark behind
``BENCH_batch_baseline.json``: a fixed ~160-instance fig10-style
instance set pushed through :func:`repro.exec.runner
.evaluate_suite_instances` in-process (``batch_serial_s``) and with a
4-worker shared-memory pool (``batch_jobs4_shm_s``).

``--suite`` measures the plan-cache campaign path itself:
:func:`repro.core.suite.paper_suite_batch` over the same 160 instances
(the number gated against ``BENCH_suite_baseline.json``).  ``--all``
runs every family.

Usage:
    python tools/perf_smoke.py --sizes 100 1000 --out perf.json
    python tools/perf_smoke.py --sizes 100 \
        --baseline BENCH_kernel_baseline.json --max-regression 3.0
    python tools/perf_smoke.py --campaign \
        --baseline BENCH_batch_baseline.json --max-regression 3.0
    python tools/perf_smoke.py --suite \
        --baseline BENCH_suite_baseline.json --max-regression 3.0
    python tools/perf_smoke.py --all
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.platform import default_platform          # noqa: E402
from repro.core.stretch import feasible_points, required_frequency  # noqa: E402
from repro.core.suite import paper_suite                  # noqa: E402
from repro.graphs.analysis import critical_path_length    # noqa: E402
from repro.graphs.generators import stg_random_graph      # noqa: E402
from repro.sched.deadlines import task_deadlines          # noqa: E402
from repro.sched.list_scheduler import list_schedule      # noqa: E402

try:
    from repro.core.energy import schedule_energy_sweep
except ImportError:  # pre-kernel checkout: fall back to the scalar loop
    from repro.core.energy import schedule_energy

    def schedule_energy_sweep(schedule, points, deadline_seconds, *,
                              sleep=None):
        return [schedule_energy(schedule, p, deadline_seconds, sleep=sleep)
                for p in points]


N_PROCESSORS = 16
SEED = 7
SCALE = 3.1e6  # cycles per unit weight — the paper's STG scaling
SUITE_CAP = 1000  # paper_suite is skipped above this size


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_size(n: int, *, with_suite: bool = True) -> dict:
    reps = 50 if n <= 100 else (10 if n <= 1000 else 3)
    platform = default_platform()
    g = stg_random_graph(n, SEED).scaled(SCALE)
    deadline = 2.0 * critical_path_length(g)
    d = task_deadlines(g, deadline)
    window = platform.seconds(deadline)

    list_schedule(g, N_PROCESSORS, d)  # warm caches before timing
    build_s = _best_of(lambda: list_schedule(g, N_PROCESSORS, d), reps)

    s = list_schedule(g, N_PROCESSORS, d)
    f_req = required_frequency(s, d, platform.fmax)
    points = feasible_points(platform.ladder, f_req)
    sweep_s = _best_of(
        lambda: schedule_energy_sweep(s, points, window,
                                      sleep=platform.sleep), reps)

    out = {"build_s": build_s, "sweep_s": sweep_s,
           "ladder_points": len(points)}
    if with_suite and n <= SUITE_CAP:
        suite_reps = 20 if n <= 100 else 5
        paper_suite(g, deadline, platform=platform)
        out["paper_suite_s"] = _best_of(
            lambda: paper_suite(g, deadline, platform=platform), suite_reps)
    return out


CAMPAIGN_SIZES = (100, 150, 200, 250)
CAMPAIGN_SEEDS = 40  # 4 sizes x 40 seeds = 160 instances
CAMPAIGN_DEADLINE_FACTOR = 2.0


def _campaign_instances() -> list:
    return [
        (g, CAMPAIGN_DEADLINE_FACTOR * critical_path_length(g))
        for n in CAMPAIGN_SIZES
        for g in (stg_random_graph(n, seed).scaled(SCALE)
                  for seed in range(CAMPAIGN_SEEDS))
    ]


def measure_campaign(reps: int = 2) -> dict:
    """Campaign throughput: serial vs parallel chunked evaluation.

    ``batch_serial_s`` times the chunked broadcast evaluation
    in-process; ``batch_jobs4_shm_s`` the same chunks fanned over a
    4-worker pool with the shared-memory result transport.  Both
    produce byte-identical results
    (tests/exec/test_identity_regression.py), so this measures cost,
    not behaviour.
    """
    from repro.exec.runner import ExecOptions, evaluate_suite_instances

    instances = _campaign_instances()

    def run(**kwargs):
        evaluate_suite_instances(
            instances, options=ExecOptions(use_cache=False, **kwargs))

    run(jobs=1)  # warm every lazy import before timing
    out = {"instances": len(instances)}
    out["batch_serial_s"] = _best_of(lambda: run(jobs=1), reps)
    out["batch_jobs4_shm_s"] = _best_of(
        lambda: run(jobs=4, shm=True), reps)
    return out


def measure_suite(reps: int = 3) -> dict:
    """Suite-campaign throughput: the plan-cache + batched-sweep path.

    Times :func:`repro.core.suite.paper_suite_batch` directly on the
    fixed 160-instance campaign — the number the plan-memoization work
    (PR 9) optimizes, gated in CI against ``BENCH_suite_baseline.json``
    (whose ``before`` section holds the pre-plan-cache
    ``batch_serial_s`` from ``BENCH_batch_baseline.json``).
    """
    from repro.core.suite import paper_suite_batch

    instances = _campaign_instances()
    paper_suite_batch(instances[:4])  # warm lazy imports and kernels
    best = _best_of(lambda: paper_suite_batch(instances), reps)
    return {"instances": len(instances), "suite_batch_s": best,
            "instances_per_s": len(instances) / best}


def gate(results: dict, baseline: dict, max_regression: float) -> list:
    """Return a list of human-readable gate failures (empty = pass)."""
    failures = []
    reference = baseline.get("after", baseline)
    for size, metrics in results.items():
        base = reference.get(size)
        if base is None:
            continue
        for name, value in metrics.items():
            if not name.endswith("_s"):
                continue
            allowed = base.get(name)
            if allowed is None:
                continue
            if value > allowed * max_regression:
                failures.append(
                    f"size {size}: {name} {value:.6f}s exceeds "
                    f"{max_regression:g}x baseline {allowed:.6f}s")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 1000])
    ap.add_argument("--out", type=Path, default=None,
                    help="write measured metrics as JSON")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="baseline JSON to gate against (its 'after' "
                         "section, or the whole file if absent)")
    ap.add_argument("--max-regression", type=float, default=3.0,
                    help="fail when a metric exceeds this multiple of "
                         "the baseline (default: 3.0)")
    ap.add_argument("--no-suite", action="store_true",
                    help="skip the paper_suite timing")
    ap.add_argument("--campaign", action="store_true",
                    help="measure campaign throughput (serial vs "
                         "batched vs parallel+shm) instead of the "
                         "per-size kernel metrics")
    ap.add_argument("--suite", action="store_true",
                    help="measure the plan-cache suite-campaign "
                         "throughput (paper_suite_batch on the fixed "
                         "160-instance campaign)")
    ap.add_argument("--all", action="store_true",
                    help="run every benchmark family (sizes, campaign "
                         "and suite)")
    args = ap.parse_args(argv)

    def emit(section: str, metrics: dict) -> None:
        row = "  ".join(f"{k}={v:.6f}" if isinstance(v, float) else
                        f"{k}={v}" for k, v in metrics.items())
        print(f"[perf-smoke] {section}: {row}")

    results = {}
    if args.all or not (args.campaign or args.suite):
        for n in args.sizes:
            results[str(n)] = measure_size(n, with_suite=not args.no_suite)
            emit(f"n={n}", results[str(n)])
    if args.campaign or args.all:
        results["campaign"] = measure_campaign()
        emit("campaign", results["campaign"])
    if args.suite or args.all:
        results["suite"] = measure_suite()
        emit("suite", results["suite"])

    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"[perf-smoke] wrote {args.out}")

    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        failures = gate(results, baseline, args.max_regression)
        for f in failures:
            print(f"[perf-smoke] FAIL {f}", file=sys.stderr)
        if failures:
            return 1
        print(f"[perf-smoke] within {args.max_regression:g}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
