"""Figs. 10 and 11 — relative energy consumption across the benchmark set.

For each benchmark (random STG-like groups and the application graphs),
each deadline factor (1.5x, 2x, 4x, 8x the CPL) and each granularity
scenario, runs the full heuristic lineup and reports energies relative
to the S&S baseline (= 100%), exactly the bars of Figs. 10 (coarse) and
11 (fine).  Group results are averaged over the group's graphs.

The campaign is flattened into one instance list and routed through
:func:`repro.exec.evaluate_suite_instances`, so ``--jobs``/``--cache-dir``
parallelise and memoise it without changing a single reported number.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.platform import Platform, default_platform
from ..core.results import Heuristic
from ..core.suite import paper_suite
from ..exec import ExecOptions, evaluate_suite_instances
from ..graphs.analysis import critical_path_length
from ..graphs.dag import TaskGraph
from ..util.tables import render_table
from .registry import (
    COARSE, DEADLINE_FACTORS, Scenario, benchmark_suite,
)
from .reporting import Report

__all__ = ["run", "relative_energies"]

_ORDER = (Heuristic.SNS, Heuristic.LAMPS, Heuristic.SNS_PS,
          Heuristic.LAMPS_PS, Heuristic.LIMIT_SF, Heuristic.LIMIT_MF)


def relative_energies(graph: TaskGraph, deadline_factor: float, *,
                      platform: Optional[Platform] = None,
                      ) -> Dict[Heuristic, float]:
    """Energy of each approach relative to S&S on one instance."""
    platform = platform or default_platform()
    deadline = deadline_factor * critical_path_length(graph)
    results = paper_suite(graph, deadline, platform=platform)
    base = results[Heuristic.SNS].total_energy
    return {h: r.total_energy / base for h, r in results.items()}


def run(*, platform: Optional[Platform] = None,
        scenario: Scenario = COARSE,
        deadline_factors: Sequence[float] = DEADLINE_FACTORS,
        graphs_per_group: int = 5,
        sizes: Optional[Sequence[int]] = None,
        seed: int = 2006,
        include_applications: bool = True,
        exec_options: Optional[ExecOptions] = None) -> Report:
    """Reproduce Fig. 10 (``scenario=COARSE``) or Fig. 11 (``FINE``)."""
    platform = platform or default_platform()
    suite_kwargs = dict(graphs_per_group=graphs_per_group, seed=seed,
                        include_applications=include_applications)
    if sizes is not None:
        suite_kwargs["sizes"] = tuple(sizes)
    suite = benchmark_suite(**suite_kwargs)

    # Flatten the campaign graph-major, deadline factors inner: each
    # scenario graph is built once and its instances sit side by side,
    # so a chunk's plan cache shares the graph's list schedules across
    # its deadlines.
    instances = []
    for graphs in suite.values():
        for unit_graph in graphs:
            g = scenario.apply(unit_graph)
            cpl = critical_path_length(g)
            instances.extend((g, factor * cpl)
                             for factor in deadline_factors)
    all_results = evaluate_suite_instances(
        instances, platform=platform, options=exec_options)
    # by_factor[k][bench]: one result per graph of bench, in order.
    results_at = iter(all_results)
    by_factor: List[Dict[str, list]] = [
        {bench: [] for bench in suite} for _ in deadline_factors]
    for bench, graphs in suite.items():
        for _ in graphs:
            for per_bench in by_factor:
                per_bench[bench].append(next(results_at))

    sections: List[str] = []
    data: Dict[str, dict] = {}
    for factor, bench_results in zip(deadline_factors, by_factor):
        rows = []
        per_bench: Dict[str, Dict[str, float]] = {}
        for bench, graphs in suite.items():
            rel = np.zeros(len(_ORDER))
            for results in bench_results[bench]:
                base = results[Heuristic.SNS].total_energy
                rel += np.array([results[h].total_energy / base
                                 for h in _ORDER])
            rel /= len(graphs)
            per_bench[bench] = {h.value: float(x)
                                for h, x in zip(_ORDER, rel)}
            rows.append((bench, *(f"{100*x:.1f}%" for x in rel)))
        table = render_table(
            ["benchmark", *(h.value for h in _ORDER)], rows,
            title=f"Deadline = {factor} x CPL ({scenario.name}-grain), "
                  f"energy relative to S&S")
        sections.append(table)
        data[f"factor_{factor}"] = per_bench

    fig = "fig10" if scenario is COARSE or scenario.name == "coarse" \
        else "fig11"
    return Report(
        experiment=fig,
        title=f"Fig. {'10' if fig == 'fig10' else '11'}: relative energy, "
              f"{scenario.name}-grain tasks",
        text="\n\n".join(sections),
        data=data,
    )
