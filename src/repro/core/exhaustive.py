"""Exhaustive minimum-energy scheduling for tiny instances.

Multiprocessor makespan minimisation is NP-hard, but for graphs of a
handful of tasks the whole (assignment x order) space can be searched.
This gives a ground-truth *optimal single-frequency* schedule to
validate the heuristics against: on tiny instances LAMPS+PS should sit
within a few percent of true optimal, and never below it.

The search enumerates list-scheduling orders via branch and bound over
topological prefixes: every non-delay schedule on N processors is
produced by dispatching ready tasks in some order, and for this
execution model (single frequency, idle-until-deadline energy) an
optimal *non-delay* schedule is optimal among all schedules for the
no-PS objective and a lower bound anchor for the +PS one.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..graphs.dag import TaskGraph
from ..sched.deadlines import task_deadlines
from ..sched.schedule import Placement, Schedule
from .plans import PlannedSweep, sweep_energies
from .platform import Platform, default_platform
from .results import Heuristic, InfeasibleScheduleError, ScheduleResult
from .stretch import feasible_points, required_frequency

__all__ = ["optimal_single_frequency", "enumerate_schedules"]

_MAX_TASKS = 12


def enumerate_schedules(graph: TaskGraph, n_processors: int,
                        *, limit: int = 2_000_000) -> "list[Schedule]":
    """All distinct non-delay schedules on ``n_processors``.

    Distinct means a different (start-time, processor-load) evolution;
    processor identities are canonicalised (lowest-id free processor
    takes the dispatched task) to avoid counting permutations of
    identical processors.

    Raises:
        ValueError: if the graph is too large (> 12 tasks) or the
            enumeration exceeds ``limit`` states.
    """
    if graph.n > _MAX_TASKS:
        raise ValueError(
            f"exhaustive search caps at {_MAX_TASKS} tasks, got {graph.n}")
    w = graph.weights_array
    preds = graph.pred_indices
    succs = graph.succ_indices

    results: List[Schedule] = []
    seen_keys: set = set()
    counter = itertools.count()

    # State: (placements dict, per-proc free time, pending counts,
    # running heap of (finish, task, proc), ready set, time).
    def rec(placed: Dict[int, Tuple[int, float]], free: Tuple[float, ...],
            pending: Tuple[int, ...], ready: frozenset, time: float,
            running: Tuple[Tuple[float, int, int], ...]) -> None:
        if len(results) + 1 > limit or next(counter) > limit:
            raise ValueError("enumeration limit exceeded")
        if len(placed) == graph.n and not running:
            key = tuple(sorted(placed.items()))
            if key not in seen_keys:
                seen_keys.add(key)
                placements = [
                    Placement(task=graph.id_of(v), processor=p,
                              start=s, finish=s + w[v])
                    for v, (p, s) in placed.items()
                ]
                results.append(Schedule(graph, n_processors, placements))
            return
        idle = [p for p in range(n_processors)
                if free[p] <= time + 1e-12]
        dispatchable = sorted(ready)
        if idle and dispatchable:
            p = min(idle)  # canonical processor choice
            for v in dispatchable:
                new_placed = dict(placed)
                new_placed[v] = (p, time)
                new_free = list(free)
                new_free[p] = time + w[v]
                new_running = tuple(sorted(
                    running + ((time + w[v], v, p),)))
                rec(new_placed, tuple(new_free), pending,
                    ready - {v}, time, new_running)
            # Also consider *not* dispatching anything now (delay), but
            # only when something is running — pure idling before any
            # work cannot help with a single frequency.
            if running:
                _advance(placed, free, pending, ready, running, rec, succs)
            return
        if running:
            _advance(placed, free, pending, ready, running, rec, succs)

    def _advance(placed: Dict[int, Tuple[int, float]],
                 free: Tuple[float, ...], pending: Tuple[int, ...],
                 ready: frozenset, running: Tuple[Tuple[float, int, int],
                                                  ...],
                 rec: Callable[..., None],
                 succs: Sequence) -> None:
        finish, v, p = running[0]
        rest = running[1:]
        new_pending = list(pending)
        new_ready = set(ready)
        for s in succs[v]:
            new_pending[s] -= 1
            if new_pending[s] == 0:
                new_ready.add(s)
        rec(placed, free, tuple(new_pending), frozenset(new_ready),
            finish, rest)

    pending0 = tuple(len(p) for p in preds)
    ready0 = frozenset(v for v in range(graph.n) if pending0[v] == 0)
    rec({}, tuple(0.0 for _ in range(n_processors)), pending0, ready0,
        0.0, ())
    return results


def optimal_single_frequency(
    graph: TaskGraph,
    deadline_cycles: float,
    *,
    platform: Optional[Platform] = None,
    shutdown: bool = True,
    max_processors: Optional[int] = None,
) -> ScheduleResult:
    """Optimal single-frequency schedule by exhaustive enumeration.

    Searches every processor count, every non-delay schedule, and every
    feasible operating point, with the paper's energy model (optionally
    with PS).  Only for tiny graphs (<= 12 tasks).

    Returns a :class:`ScheduleResult` tagged with the heuristic whose
    search space it bounds (LAMPS+PS when ``shutdown`` else LAMPS).
    """
    platform = platform or default_platform()
    d = task_deadlines(graph, deadline_cycles)
    deadline_seconds = platform.seconds(deadline_cycles)
    sleep = platform.sleep if shutdown else None
    n_max = min(graph.n, max_processors or graph.n)

    best: Optional[Tuple] = None
    for n in range(1, n_max + 1):
        sweeps: List[PlannedSweep] = []
        for sched in enumerate_schedules(graph, n):
            f_req = required_frequency(sched, d, platform.fmax)
            if f_req <= platform.fmax * (1.0 + 1e-9):
                sweeps.append(PlannedSweep(
                    sched, tuple(feasible_points(platform.ladder, f_req)),
                    sleep))
        # One batched sweep per processor count; the selection replays
        # the (schedule, point) order with a strict ``<``, so ties keep
        # the first candidate.
        for ps, energies in zip(sweeps,
                                sweep_energies(sweeps, deadline_seconds)):
            for energy, point in zip(energies, ps.points):
                if best is None or energy.total < best[0].total:
                    best = (energy, point, ps.schedule)
    if best is None:
        raise InfeasibleScheduleError(
            f"{graph.name or 'graph'}: no feasible schedule up to "
            f"{n_max} processors")
    energy, point, sched = best
    return ScheduleResult(
        heuristic=Heuristic.LAMPS_PS if shutdown else Heuristic.LAMPS,
        graph_name=graph.name,
        energy=energy,
        point=point,
        n_processors=sched.employed_processors,
        deadline_cycles=float(deadline_cycles),
        deadline_seconds=deadline_seconds,
        schedule=sched,
    )
