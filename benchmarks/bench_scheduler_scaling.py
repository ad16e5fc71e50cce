"""Microbenchmarks: scheduler and heuristic runtime scaling.

The paper reports that finding the optimal configuration "never took
more than 20 seconds on a 3 GHz Pentium 4" for any benchmark; these
benches track the analogous cost here (list scheduling dominates, as the
T_LAMPS = #schedules * T_ls complexity analysis predicts).
"""

import pytest

from repro.core.energy import schedule_energy_sweep
from repro.core.platform import default_platform
from repro.core.stretch import feasible_points, required_frequency
from repro.core.suite import paper_suite
from repro.graphs.analysis import critical_path_length
from repro.graphs.generators import stg_random_graph
from repro.sched.deadlines import task_deadlines
from repro.sched.list_scheduler import list_schedule


@pytest.mark.parametrize("n", [500, 2000, 5000])
def test_list_schedule_scaling(benchmark, n):
    g = stg_random_graph(n, 42)
    d = task_deadlines(g, 2 * critical_path_length(g))
    s = benchmark(list_schedule, g, 16, d)
    assert s.makespan > 0


@pytest.mark.parametrize("n", [100, 1000])
def test_paper_suite_runtime(benchmark, n):
    g = stg_random_graph(n, 7).scaled(3.1e6)
    deadline = 2 * critical_path_length(g)
    res = benchmark.pedantic(paper_suite, args=(g, deadline),
                             rounds=3, iterations=1, warmup_rounds=1)
    assert len(res) == 6


# ---------------------------------------------------------------------------
# Array-native kernel micro-benchmarks (perfbench/run.py times the same
# layers end to end, as sched.list_schedule and core.batch.sweep).
# ---------------------------------------------------------------------------

def _kernel_instance(n):
    platform = default_platform()
    g = stg_random_graph(n, 7).scaled(3.1e6)
    deadline = 2 * critical_path_length(g)
    d = task_deadlines(g, deadline)
    return platform, g, d, platform.seconds(deadline)


@pytest.mark.parametrize("n", [100, 1000, 5000])
def test_kernel_schedule_build(benchmark, n):
    """Schedule.from_arrays fast path via the event-driven scheduler."""
    platform, g, d, _ = _kernel_instance(n)
    s = benchmark(list_schedule, g, 16, d)
    assert s.employed_processors <= 16


@pytest.mark.parametrize("n", [100, 1000, 5000])
def test_kernel_full_ladder_sweep(benchmark, n):
    """One-shot vectorized energy sweep over the feasible ladder."""
    platform, g, d, window = _kernel_instance(n)
    s = list_schedule(g, 16, d)
    points = feasible_points(platform.ladder,
                             required_frequency(s, d, platform.fmax))
    assert points
    out = benchmark(schedule_energy_sweep, s, points, window,
                    sleep=platform.sleep)
    assert len(out) == len(points)


def test_mpeg_suite_runtime(benchmark):
    from repro.core.platform import default_platform
    from repro.graphs.mpeg import MPEG_DEADLINE_SECONDS, mpeg1_gop_graph

    plat = default_platform()
    g = mpeg1_gop_graph()
    deadline = plat.reference_cycles(MPEG_DEADLINE_SECONDS)
    res = benchmark(paper_suite, g, deadline, platform=plat)
    assert len(res) == 6
