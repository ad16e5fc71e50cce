"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    python -m repro.experiments                # everything, quick sizes
    python -m repro.experiments fig2 table3    # a subset
    python -m repro.experiments --full         # larger benchmark groups
    python -m repro.experiments --full --jobs 8 --cache-dir ~/.cache/repro
    python -m repro.experiments --out report.txt
    python -m repro.experiments fig10 --jobs 4 --profile=trace.json
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict

from ..exec import ExecOptions
from ..obs import format_log_stats, live, write_chrome_trace, \
    write_metrics_jsonl
from . import (
    ext_abb,
    ext_comm,
    ext_hetero,
    ext_multifreq,
    ext_runtime,
    ext_technology,
    fig02_power_curves,
    fig03_breakeven,
    fig04_07_example,
    fig06_energy_vs_n,
    fig10_11_relative_energy,
    fig12_13_parallelism,
    headline,
    scorecard,
    table2_benchmarks,
    table3_mpeg,
)
from .registry import COARSE, FINE
from .reporting import cache_stats_line

__all__ = ["main"]


def _experiments(full: bool, exec_options: ExecOptions
                 ) -> Dict[str, Callable[[], object]]:
    gpg = 20 if full else 5
    sizes_small = None if full else (50, 100, 500, 1000, 2000)
    ex = exec_options
    return {
        "fig2": lambda: fig02_power_curves.run(),
        "fig3": lambda: fig03_breakeven.run(),
        "fig4": lambda: fig04_07_example.run(),
        "fig6": lambda: fig06_energy_vs_n.run(),
        "table2": lambda: table2_benchmarks.run(
            graphs_per_group=20 if full else 10, exec_options=ex),
        "fig10": lambda: fig10_11_relative_energy.run(
            scenario=COARSE, graphs_per_group=gpg, sizes=sizes_small,
            exec_options=ex),
        "fig11": lambda: fig10_11_relative_energy.run(
            scenario=FINE, graphs_per_group=gpg, sizes=sizes_small,
            exec_options=ex),
        "fig12": lambda: fig12_13_parallelism.run(
            scenario=COARSE, graphs_per_size=20 if full else 10,
            exec_options=ex),
        "fig13": lambda: fig12_13_parallelism.run(
            scenario=FINE, graphs_per_size=20 if full else 10,
            exec_options=ex),
        "table3": lambda: table3_mpeg.run(exec_options=ex),
        "headline": lambda: headline.run(
            graphs_per_group=8 if full else 4),
        "ext-multifreq": lambda: ext_multifreq.run(
            graphs_per_group=6 if full else 4),
        "ext-abb": lambda: ext_abb.run(
            graphs_per_group=6 if full else 4),
        "ext-runtime": lambda: ext_runtime.run(
            graphs_per_group=6 if full else 4),
        "ext-comm": lambda: ext_comm.run(
            graphs_per_group=6 if full else 4),
        "ext-technology": lambda: ext_technology.run(
            graphs_per_group=6 if full else 4),
        "ext-hetero": lambda: ext_hetero.run(
            graphs_per_group=6 if full else 4),
        "scorecard": lambda: scorecard.run(),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all); "
                             "e.g. fig2 fig10 table3")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale benchmark groups (slower)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the instance fan-out "
                             "(default: 1, serial)")
    parser.add_argument("--cache-dir", metavar="PATH",
                        default=os.environ.get("REPRO_CACHE_DIR"),
                        help="content-addressed result cache directory "
                             "(default: $REPRO_CACHE_DIR, else no cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore any configured cache directory")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="N",
                        help="bound the cache directory to N bytes: "
                             "least-recently-used entries are evicted "
                             "and orphaned temp files swept as it "
                             "grows (default: unbounded)")
    parser.add_argument("--strict", action="store_true",
                        help="run the repro.audit invariant checks on "
                             "every fresh instance (identical results, "
                             "fails loudly on any violation)")
    parser.add_argument("--profile", nargs="?", const="repro-trace.json",
                        default=None, metavar="PATH",
                        help="record spans/counters across the "
                             "scheduler, search loops and exec fan-out; "
                             "writes a Chrome-trace/Perfetto JSON to "
                             "PATH (default: repro-trace.json) plus a "
                             "<PATH>.metrics.jsonl dump, and prints a "
                             "self-time table to stderr.  Results are "
                             "byte-identical with and without it.")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the report to FILE")
    parser.add_argument("--json-dir", metavar="DIR",
                        help="also write per-experiment JSON data files")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    exec_options = ExecOptions(jobs=args.jobs, cache_dir=args.cache_dir,
                               use_cache=not args.no_cache,
                               strict=args.strict,
                               profile=args.profile is not None,
                               cache_max_bytes=args.cache_max_bytes)
    registry = _experiments(args.full, exec_options)
    chosen = args.experiments or list(registry)
    unknown = [e for e in chosen if e not in registry]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; "
                     f"choose from {list(registry)}")

    if args.json_dir:
        from pathlib import Path

        Path(args.json_dir).mkdir(parents=True, exist_ok=True)

    obs = exec_options.open_obs()
    o = live(obs)
    blocks = []
    for exp_id in chosen:
        t0 = time.time()
        with o.span(f"experiment:{exp_id}", category="experiment"):
            report = registry[exp_id]()
        elapsed = time.time() - t0
        blocks.append(str(report) + f"[{exp_id} completed in {elapsed:.1f}s]\n")
        print(blocks[-1])
        if args.json_dir:
            from pathlib import Path

            report.save_json(Path(args.json_dir) / f"{exp_id}.json")
    cache = exec_options.open_cache()
    if cache is not None and cache.stats.lookups:
        # stderr, so --out/stdout report text is identical with and
        # without caching (the JSON data already is, by construction).
        print(cache_stats_line(cache.stats), file=sys.stderr)
    timing = exec_options.timing_summary()
    if timing is not None:
        # stderr alongside the cache-stats line: the per-instance wall
        # times the pool measures, finally reported.
        print(timing, file=sys.stderr)
    audit = exec_options.open_audit()
    if audit is not None:
        # stderr for the same reason: strict mode must not perturb the
        # report text.
        print(audit.summary_line(), file=sys.stderr)
    if obs is not None:
        # Profiling output is stderr + side files only — the report
        # text and JSON stay byte-identical under --profile.
        trace_path = write_chrome_trace(obs, args.profile)
        metrics_path = write_metrics_jsonl(
            obs, trace_path.with_name(trace_path.name + ".metrics.jsonl"))
        print(format_log_stats(obs), file=sys.stderr)
        print(obs.summary_line(), file=sys.stderr)
        print(f"trace written to {trace_path} (open in "
              f"https://ui.perfetto.dev); metrics in {metrics_path}",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(blocks))
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
