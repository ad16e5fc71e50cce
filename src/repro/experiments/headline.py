"""The paper's headline claims, recomputed from the benchmark sweep.

Claims (abstract + Section 5.2):

* LAMPS+PS reduces energy vs S&S by up to 46 % at deadline 1.5x CPL and
  up to 73 % at 8x CPL (coarse grain; 40 %/71 % fine grain).
* LAMPS+PS improves on LAMPS by up to 12 % (1.5x) / 18 % (8x), coarse.
* With coarse-grain tasks LAMPS+PS attains more than 94 % of the
  possible (LIMIT-SF) energy reduction on every benchmark.

A maximum says little about the pool it came from, so each one is
reported with the median and p90 beside it, the graph that attains it
(with its average parallelism), and the maximum over only the graphs
whose statistics fall inside the paper's Table 2 ranges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.platform import Platform, default_platform
from ..core.results import Heuristic
from ..core.suite import paper_suite
from ..graphs.analysis import GraphStats, critical_path_length, graph_stats
from ..util.tables import render_table
from .registry import COARSE, FINE, Scenario, benchmark_suite
from .reporting import Report
from .table2_benchmarks import PAPER_GROUP_RANGES

__all__ = ["run", "claims_for_scenario"]


def _in_table2_ranges(label: str, stats: GraphStats) -> bool:
    """Whether a graph's edges, CPL and work lie inside Table 2's range
    for its group.  The application graphs match Table 2 exactly; a
    group the paper did not publish has no range to be inside."""
    if not label.isdigit():
        return True
    ranges = PAPER_GROUP_RANGES.get(int(label))
    return ranges is not None and all(
        lo <= v <= hi
        for (lo, hi), v in zip(ranges, (stats.m, stats.cpl, stats.work)))


def _spread(name: str, values: Sequence[float]) -> Dict[str, float]:
    """A max-type claim's maximum with the median and p90 beside it."""
    return {f"max_{name}": float(np.max(values)),
            f"median_{name}": float(np.median(values)),
            f"p90_{name}": float(np.percentile(values, 90))}


def claims_for_scenario(scenario: Scenario, *,
                        platform: Optional[Platform] = None,
                        graphs_per_group: int = 4,
                        sizes: Sequence[int] = (50, 100, 500, 1000),
                        factors: Sequence[float] = (1.5, 8.0),
                        seed: int = 2006) -> Dict[str, dict]:
    """LAMPS+PS savings (max, median, p90, who attains the max, the
    in-range max) and LIMIT-SF attainment per deadline factor."""
    platform = platform or default_platform()
    suite = benchmark_suite(graphs_per_group=graphs_per_group,
                            sizes=tuple(sizes), seed=seed)
    pool = [(label, unit_graph, graph_stats(unit_graph))
            for label, graphs in suite.items() for unit_graph in graphs]
    in_range = [i for i, (label, _, stats) in enumerate(pool)
                if _in_table2_ranges(label, stats)]
    out: Dict[str, dict] = {}
    for factor in factors:
        vs_sns: List[float] = []
        vs_lamps: List[float] = []
        attainments = []
        for _, unit_graph, _ in pool:
            g = scenario.apply(unit_graph)
            deadline = factor * critical_path_length(g)
            res = paper_suite(g, deadline, platform=platform)
            e_sns = res[Heuristic.SNS].total_energy
            e_lps = res[Heuristic.LAMPS_PS].total_energy
            e_sf = res[Heuristic.LIMIT_SF].total_energy
            vs_sns.append(1.0 - e_lps / e_sns)
            vs_lamps.append(1.0 - e_lps / res[Heuristic.LAMPS].total_energy)
            possible = e_sns - e_sf
            if possible > 1e-12:
                attainments.append((e_sns - e_lps) / possible)
        best = max(range(len(pool)), key=vs_sns.__getitem__)
        best_in = max(in_range, key=vs_sns.__getitem__)
        out[f"factor_{factor}"] = {
            **_spread("saving_vs_sns", vs_sns),
            "max_saving_vs_sns_graph": pool[best][1].name,
            "max_saving_vs_sns_parallelism": pool[best][2].parallelism,
            "in_range_max_saving_vs_sns": vs_sns[best_in],
            "in_range_max_saving_vs_sns_graph": pool[best_in][1].name,
            "in_range_max_saving_vs_sns_parallelism":
                pool[best_in][2].parallelism,
            **_spread("saving_vs_lamps", vs_lamps),
            "min_attainment_of_limit_sf": float(np.min(attainments))
            if attainments else float("nan"),
            "mean_attainment_of_limit_sf": float(np.mean(attainments))
            if attainments else float("nan"),
        }
    return out


def run(*, platform: Optional[Platform] = None, graphs_per_group: int = 4,
        sizes: Sequence[int] = (50, 100, 500, 1000),
        seed: int = 2006) -> Report:
    platform = platform or default_platform()
    rows = []
    spread_rows = []
    data = {}
    paper = {
        ("coarse", "factor_1.5"): ("46%", ">=94%"),
        ("coarse", "factor_8.0"): ("73%", ">=94%"),
        ("fine", "factor_1.5"): ("40%", ""),
        ("fine", "factor_8.0"): ("71%", ""),
    }
    for scenario in (COARSE, FINE):
        claims = claims_for_scenario(
            scenario, platform=platform, graphs_per_group=graphs_per_group,
            sizes=sizes, seed=seed)
        data[scenario.name] = claims
        for key, c in claims.items():
            ref_saving, ref_attain = paper.get((scenario.name, key), ("", ""))
            deadline = key.replace("factor_", "") + " x CPL"
            rows.append((
                scenario.name, deadline,
                f"{100*c['max_saving_vs_sns']:.1f}%",
                ref_saving,
                f"{100*c['max_saving_vs_lamps']:.1f}%",
                f"{100*c['min_attainment_of_limit_sf']:.1f}%",
                ref_attain,
            ))
            spread_rows.append((
                scenario.name, deadline,
                f"{100*c['median_saving_vs_sns']:.1f}%",
                f"{100*c['p90_saving_vs_sns']:.1f}%",
                f"{100*c['max_saving_vs_sns']:.1f}%",
                f"{c['max_saving_vs_sns_graph']} "
                f"({c['max_saving_vs_sns_parallelism']:.1f})",
                f"{100*c['in_range_max_saving_vs_sns']:.1f}%",
                f"{c['in_range_max_saving_vs_sns_graph']} "
                f"({c['in_range_max_saving_vs_sns_parallelism']:.1f})",
            ))
    table = render_table(
        ["scenario", "deadline", "max saving vs S&S", "paper",
         "max saving vs LAMPS", "min LIMIT-SF attainment", "paper"],
        rows, title="Headline claims (LAMPS+PS)")
    spread = render_table(
        ["scenario", "deadline", "median", "p90", "max",
         "attained by (parallelism)", "in-range max",
         "attained by (parallelism)"],
        spread_rows,
        title="LAMPS+PS saving vs S&S across the pool (in-range: graphs "
              "inside the paper's Table 2 ranges)")
    return Report(experiment="headline",
                  title="Headline claims recomputed",
                  text=f"{table}\n\n{spread}", data=data)
