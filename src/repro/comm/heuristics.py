"""Communication-aware LAMPS.

The LAMPS processor-count/frequency trade-off rebuilt on the
communication-aware scheduler: with transfer costs, spreading work has
a *makespan* penalty on top of the leakage penalty, so the optimal
processor count falls as the communication-to-computation ratio rises.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..core.batch import PlannedSweep
from ..core.plans import sweep_energies
from ..core.platform import Platform, default_platform
from ..core.results import Heuristic, InfeasibleScheduleError, \
    ScheduleResult
from ..core.stretch import feasible_points, required_frequency
from ..sched.deadlines import task_deadlines
from ..sched.schedule import Schedule
from .model import CommGraph
from .scheduler import comm_aware_schedule

__all__ = ["comm_lamps"]


def comm_lamps(cgraph: CommGraph, deadline: float, *,
               platform: Optional[Platform] = None,
               shutdown: bool = True,
               policy: str = "edf") -> ScheduleResult:
    """LAMPS(+PS) on a communication-annotated graph.

    Mirrors :func:`repro.core.lamps.lamps_search` with the
    communication-aware scheduler substituted; the same binary search /
    linear sweep structure and energy model apply (transfer time shows
    up as idle gaps, consistent with a DMA-driven interconnect that
    does not occupy the processors).
    """
    platform = platform or default_platform()
    graph = cgraph.graph
    d = task_deadlines(graph, deadline)
    deadline_seconds = platform.seconds(deadline)
    sleep = platform.sleep if shutdown else None

    cache: Dict[int, Schedule] = {}

    def sched(n: int) -> Schedule:
        if n not in cache:
            cache[n] = comm_aware_schedule(cgraph, n, d, policy=policy)
        return cache[n]

    def feasible(n: int) -> bool:
        return sched(n).required_reference_frequency(d) <= 1.0 + 1e-9

    if not feasible(graph.n) and not feasible(1):
        # Communication can make the widest spread too slow, while a
        # single processor pays no transfer cost — check both extremes
        # before giving up.
        raise InfeasibleScheduleError(
            f"{graph.name or 'graph'}: infeasible at full speed "
            f"under communication costs")
    # With communication, makespan is not monotone in N (more
    # processors can hurt), so the sweep starts from 1 processor and
    # stops only after a sustained plateau.  The walk reads only
    # makespans, so every count's ladder is planned first and evaluated
    # in one batched sweep below.
    sweeps: List[PlannedSweep] = []
    prev_makespan = math.inf
    stall = 0
    for n in range(1, graph.n + 1):
        s = sched(n)
        f_req = required_frequency(s, d, platform.fmax)
        if f_req <= platform.fmax * (1.0 + 1e-9):
            points = feasible_points(platform.ladder, f_req)
            if sleep is None:
                points = points[:1]  # plain LAMPS stretches maximally
            sweeps.append(PlannedSweep(s, tuple(points), deadline_seconds,
                                       sleep))
        if s.makespan >= prev_makespan - 1e-9:
            stall += 1
            if stall >= 3:  # non-monotone: require a plateau, not a blip
                break
        else:
            stall = 0
            prev_makespan = s.makespan
    # Replay the (n, point) order with a strict ``<``: ties keep the
    # first candidate.
    best = None
    for ps, energies in zip(sweeps, sweep_energies(sweeps)):
        for e, point in zip(energies, ps.points):
            if best is None or e.total < best[0].total:
                best = (e, point, ps.schedule)
    if best is None:
        raise InfeasibleScheduleError(
            f"{graph.name or 'graph'}: no feasible configuration")
    energy, point, schedule = best
    return ScheduleResult(
        heuristic=Heuristic.LAMPS_PS if shutdown else Heuristic.LAMPS,
        graph_name=graph.name,
        energy=energy,
        point=point,
        n_processors=schedule.employed_processors,
        deadline_cycles=float(deadline),
        deadline_seconds=deadline_seconds,
        schedule=schedule,
    )
