"""The two campaign workloads: ``campaign`` and ``campaign_large``.

Both push seeded instances through
:func:`repro.exec.runner.evaluate_suite_instances`, the campaign entry
point of ``repro.experiments``.

* ``campaign`` — 160 small instances, ``jobs=1``, cache off, repeated
  passes.  One pass is one unit of work.
* ``campaign_large`` — 128 large instances, ``jobs=2`` against a fresh
  on-disk cache.  One unit is a cycle: a cold pass (compute, pool
  fan-out, cache writes) then a warm pass (cache reads only).
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

import checks
import common
import instances as inputs
import spec
from common import metric, report
from tracing import (Tracer, check_aliasing, format_table, layer_values,
                     self_times)

LARGE_JOBS = 2
#: Minimum timed units per run, even past the window.
MIN_PASSES = 8
MIN_CYCLES = 2
STRICT_SAMPLE = {"campaign": 8, "campaign_large": 2}


def setup(workload: str, seed: int) -> List[Tuple[Any, float]]:
    """Generate the inputs and finish lazy set-up (imports, kernel).

    The warm-up evaluates one small slice uncached, so first-call costs
    land here and not in the first timed pass.
    """
    from repro.exec.runner import ExecOptions, evaluate_suite_instances

    make = inputs.campaign if workload == "campaign" else \
        inputs.campaign_large
    inst = make(seed)
    warm = inst[:32] if workload == "campaign" else inst[:2]
    evaluate_suite_instances(warm, options=ExecOptions(use_cache=False))
    return inst


# ----------------------------------------------------------------------
# Units of work
# ----------------------------------------------------------------------
def _serial(inst) -> list:
    from repro.exec.runner import ExecOptions, evaluate_suite_instances

    return evaluate_suite_instances(
        inst, options=ExecOptions(jobs=1, use_cache=False))


def _pass(inst) -> Tuple[float, float, list]:
    """One serial uncached pass: ``(wall_s, scaled_s, results)``."""
    return common.timed(_serial, inst)


def _cycle(inst, pool: Optional[Tracer] = None) -> Dict[str, Any]:
    """One cold + warm cycle of ``campaign_large`` on a fresh cache.

    ``cold_gated`` is the cold pass with only its serial share
    host-scaled: the single-thread reference loop does not track the
    two workers, so the time inside the pool (from ``pool``'s spans,
    when given) stays wall time.
    """
    from repro.exec.runner import ExecOptions, evaluate_suite_instances

    root = tempfile.mkdtemp(prefix="cache-", dir=common.WORK / "tmp")
    try:
        cold_opts = ExecOptions(jobs=LARGE_JOBS, cache_dir=root)
        mark = len(pool.spans) if pool else 0
        cold_s, cold_scaled, cold = common.timed(
            evaluate_suite_instances, inst, options=cold_opts)
        pool_s = sum(sp[3] - sp[2] for sp in pool.spans[mark:]) \
            if pool else 0.0
        warm_opts = ExecOptions(jobs=LARGE_JOBS, cache_dir=root)
        warm_s, warm_scaled, warm = common.timed(
            evaluate_suite_instances, inst, options=warm_opts)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    cs, ws = cold_opts.open_cache().stats, warm_opts.open_cache().stats
    busy = sum(cold_opts.instance_seconds)
    return {
        "cold_s": cold_s, "warm_s": warm_s, "cold": cold, "warm": warm,
        "cold_scaled": cold_scaled, "warm_scaled": warm_scaled,
        "cold_gated": (cold_s - pool_s) * cold_scaled / cold_s + pool_s,
        "busy_s": busy,
        "fresh": len(cold_opts.instance_seconds)
        + len(warm_opts.instance_seconds),
        "cache": {k: getattr(cs, k) + getattr(ws, k)
                  for k in ("hits", "misses", "evictions", "bytes_read",
                            "bytes_written")},
    }


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, inst,
        probe_setups: Callable[[], List[Tuple[float, float]]]
        ) -> Tuple[bool, int, int, Dict]:
    """Timed units, checks, then ``probe_setups`` for the setup_s samples.

    The probes run last: they are child processes too, and the pool
    workers' peak memory is read from the children's ``ru_maxrss``.
    """
    from repro.exec.cache import summarize_results

    expected = common.golden(workload, seed)
    if workload == "campaign_large":
        # One untimed cycle first: the first pool and cache of a process
        # run slower than the ones after them.
        _cycle(inst)
    window = common.Deadline(seconds)
    attempted = failed = 0
    digests = []
    first_payloads = None
    if workload == "campaign":
        walls, scaled = [], []
        while len(walls) < MIN_PASSES or window.left() > 0:
            wall, t, res = _pass(inst)
            walls.append(wall)
            scaled.append(t)
            digests.append(common.results_digest(res))
            if first_payloads is None:
                first_payloads = [summarize_results(r) for r in res]
        rss = common.peak_rss_mb()
        units = len(walls)
        # The same sample twice: a pass is the wait for one campaign.
        per_s = len(inst) / common.median(scaled)
        p50_ms = 1e3 * common.median(scaled)
        report(f"campaign: {units} passes x {len(inst)} instances; wall "
               f"median {1e3 * common.median(walls):.1f} ms, p90 "
               f"{1e3 * common.percentile(walls, 90):.1f} ms, min "
               f"{1e3 * min(walls):.1f} ms, max {1e3 * max(walls):.1f} ms")
        report(f"  instances_per_s = {per_s:.2f} 1/s, p50_ms = "
               f"{p50_ms:.1f} ms (median of {units} host-scaled passes; "
               f"wall {len(inst) / common.median(walls):.2f} 1/s)")
        report("  pass wall / scaled times (ms): " + " ".join(
            f"{1e3 * w:.0f}/{1e3 * t:.0f}" for w, t in zip(walls, scaled)))
    else:
        cycles = []
        # Two clock readings per pass around the pool: its wall time is
        # the base of exec.pool.busy_ratio.
        pool = Tracer("time").install(only=("exec.pool",))
        while len(cycles) < MIN_CYCLES or window.left() > 0:
            c = _cycle(inst, pool)
            cycles.append(c)
            digests.append(common.results_digest(c["cold"]))
            digests.append(common.results_digest(c["warm"]))
            if first_payloads is None:
                first_payloads = [summarize_results(r) for r in c["cold"]]
            c["cold"] = c["warm"] = None
        pool.uninstall()
        pool_wall = self_times(pool.spans)["exec.pool"]["total_s"]
        # The heaviest chunk sets the largest worker peak whichever
        # worker it lands on; count it once per worker.
        parent_mb = common.peak_rss_mb()
        workers_mb = LARGE_JOBS * common.children_peak_rss_mb()
        rss = parent_mb + workers_mb
        units = len(cycles)

        def med(key: str) -> float:
            return common.median([c[key] for c in cycles])

        per_s = len(inst) / med("cold_gated")
        p50_ms = 1e3 * med("warm_scaled")
        busy = sum(c["busy_s"] for c in cycles)
        cache = cycles[-1]["cache"]
        report(f"campaign_large: {units} cycles x {len(inst)} instances, "
               f"jobs={LARGE_JOBS}; wall medians: cold "
               f"{med('cold_s'):.3f} s, warm {med('warm_s'):.3f} s")
        report(f"  instances_per_s = {per_s:.2f} 1/s (cold passes, serial "
               f"share host-scaled; wall {len(inst) / med('cold_s'):.2f} "
               f"1/s, all scaled {len(inst) / med('cold_scaled'):.2f} 1/s)")
        report(f"  p50_ms = {p50_ms:.1f} ms (warm passes: the wait for "
               f"a cached campaign); warm_instances_per_s = "
               f"{1e3 * len(inst) / p50_ms:.2f} 1/s (wall "
               f"{len(inst) / med('warm_s'):.2f} 1/s)")
        report(f"  medians of {units} host-scaled cycles; cold wall / "
               f"scaled / gated, warm wall / scaled (s): " + " ".join(
                   f"{c['cold_s']:.2f}/{c['cold_scaled']:.2f}/"
                   f"{c['cold_gated']:.2f} "
                   f"{c['warm_s']:.2f}/{c['warm_scaled']:.2f}"
                   for c in cycles))
        report(f"  exec.pool.chunks = "
               f"{pool.counts['exec.pool.chunks'] / units:g} per cycle, "
               f"{LARGE_JOBS} workers; exec.pool.wall_s = "
               f"{pool_wall / units:.3f} s per cycle; exec.pool.busy_ratio "
               f"= {busy / (LARGE_JOBS * pool_wall):.3f} (worker seconds / "
               f"(jobs x pool wall))")
        report(f"  exec.cache per cycle: {cache}")
        for c in cycles:
            if c["fresh"] != len(inst):
                failed += len(inst)
                report(f"  FAIL: warm pass recomputed "
                       f"{c['fresh'] - len(inst)} instances")
    # One digest per pass; a campaign_large cycle is two passes.
    attempted += len(inst) * len(digests)
    reference = expected or digests[0]
    bad = sum(1 for d in digests if d != reference)
    failed += bad * len(inst)
    report(f"  result digest {digests[0][:16]}... "
           f"({'committed' if expected else 'first pass'} reference; "
           f"{bad} of {len(digests)} passes differ)")
    problems = checks.strict_sample(inst, first_payloads, seed,
                                    STRICT_SAMPLE[workload])
    for p in problems[:10]:
        report(f"  FAIL: {p}")
    failed += len(problems)
    attempted += STRICT_SAMPLE[workload]
    setup_samples = probe_setups()
    setup_s = common.median([t for _, t in setup_samples])
    report(f"  setup_s = {setup_s:.3f} s (median of "
           f"{len(setup_samples)} host-scaled set-ups; wall / scaled: "
           f"{', '.join(f'{w:.3f}/{t:.3f}' for w, t in setup_samples)})")
    report(f"  peak_rss_mb = {rss:.1f} MiB"
           + (f" (parent {parent_mb:.1f} + {LARGE_JOBS} x the largest "
              f"worker peak: {workers_mb:.1f})"
              if workload == "campaign_large" else ""))
    report(f"  failed_ratio = {failed / attempted:.4f} "
           f"({failed} of {attempted})")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "instances_per_s": metric(per_s, "1/s"),
        "p50_ms": metric(p50_ms, "ms"),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    return failed == 0, attempted, failed, metrics


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
def _compare_counts(reference: Dict[str, float], got: Dict[str, float],
                    what: str) -> List[str]:
    keys = sorted(set(reference) | set(got))
    return [f"{what}: {k} counted {reference.get(k, 0)} untimed vs "
            f"{got.get(k, 0)} traced"
            for k in keys if reference.get(k, 0) != got.get(k, 0)]


def run_traced(workload: str, seed: int, seconds: float, inst
               ) -> Tuple[bool, int, int, Dict]:
    """Untraced, count-only and traced units; per-layer table.

    The traced units must reproduce the count-only unit's result digest
    and every call count exactly, or the trace measured another
    program.
    """
    from repro.sched.ckernel import CKERNEL_ACTIVE

    window = common.Deadline(seconds)
    problems: List[str] = []
    large = workload == "campaign_large"

    def unit() -> Tuple[float, str, Dict]:
        """Host-scaled time, result digest and facts of one unit."""
        if large:
            c = _cycle(inst)
            digest = common.results_digest(c["cold"]) + \
                common.results_digest(c["warm"])
            return c["cold_scaled"] + c["warm_scaled"], digest, c
        _, scaled, res = _pass(inst)
        return scaled, common.results_digest(res), {}

    plain = [unit() for _ in range(1 if large else 3)]
    plain_wall = common.median([p[0] for p in plain])
    ref_digest = plain[0][1]
    counter = Tracer("count").install()
    check_aliasing()
    _, count_digest, _ = unit()
    counter.uninstall()
    ref_counts = dict(counter.counts)
    if count_digest != ref_digest:
        problems.append("count-only run changed the results")

    tracer = Tracer("time").install()
    check_aliasing()
    traced_walls: List[float] = []
    cache_totals: Dict[str, float] = {}
    busy = 0.0
    min_units = 1 if large else 3
    while len(traced_walls) < min_units or window.left() > 0:
        before = dict(tracer.counts)
        dt, digest, info = unit()
        traced_walls.append(dt)
        if digest != ref_digest:
            problems.append("traced run changed the results")
        delta = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        problems += _compare_counts(ref_counts, delta, "call counts")
        for k, val in info.get("cache", {}).items():
            cache_totals[k] = cache_totals.get(k, 0) + val
        busy += info.get("busy_s", 0.0)
        if large:
            break
    units = len(traced_walls)
    rows = self_times(tracer.spans)
    values = layer_values(rows, dict(tracer.counts), units)
    if large:
        # Forked workers keep their spans: time the compute layers with
        # one serial uncached sweep over the same instances instead.
        mark, before = len(tracer.spans), dict(tracer.counts)
        res = _serial(inst)
        compute_rows = self_times(tracer.spans[mark:])
        if common.results_digest(res) != ref_digest[:64]:
            problems.append("serial compute sweep changed the results")
        compute = layer_values(
            compute_rows,
            {k: v - before.get(k, 0) for k, v in tracer.counts.items()}, 1)
        for k, v in compute.items():
            if not k.startswith("exec."):
                values[k] = v
        rows.update({k: r for k, r in compute_rows.items()
                     if not k.startswith("exec.")})
        values["exec.pool.worker_busy_s"] = busy / units
        wall = values["exec.pool.wall_s"]
        values["exec.pool.busy_ratio"] = \
            values["exec.pool.worker_busy_s"] / (LARGE_JOBS * wall) \
            if wall else 0.0
        for k, val in cache_totals.items():
            values[f"exec.cache.{k}"] = val / units
    else:
        wall = values["exec.pool.wall_s"]
        values["exec.pool.worker_busy_s"] = wall
        values["exec.pool.busy_ratio"] = 1.0 if wall else 0.0
    tracer.uninstall()
    values["sched.ckernel_active"] = 1.0 if CKERNEL_ACTIVE else 0.0
    values["trace.overhead_ratio"] = common.median(traced_walls) / plain_wall
    tracer.dump(str(common.WORK / f"spans-{workload}.json"))

    unit_name = "cycle" if large else "pass"
    report(f"{workload} traced: {units} traced {unit_name}(s); untraced "
           f"{plain_wall:.3f} s, traced {common.median(traced_walls):.3f} "
           f"s (host-scaled), overhead "
           f"x{values['trace.overhead_ratio']:.3f}")
    if not CKERNEL_ACTIVE:
        report("  NOTE: C kernel inactive: a different configuration, "
               "not a slow run")
    if large:
        report("  compute layers from one serial uncached sweep of the "
               "same instances; exec.* from the parent of the "
               "jobs=2 cycle")
    else:
        suite = rows.get("core.suite", {}).get("total_s", 0.0) / units
        report(f"  paper_suite_batch inclusive per pass: {suite:.3f} s "
               f"(the quantity BENCH_suite_baseline.json called "
               f"suite_batch_s, traced)")
    report(format_table(rows, units, unit_name))
    for p in problems[:10]:
        report(f"  FAIL: {p}")
    attempted = units + 2
    failed = min(len(problems), attempted)
    return not problems, attempted, failed, spec.layer_metrics(values)
