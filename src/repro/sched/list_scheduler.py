"""Event-driven non-preemptive list scheduler.

Implements the paper's LS-EDF (Section 4): a work-conserving simulation
in which, whenever a processor is free and tasks are ready (all
predecessors finished), the ready task with the best priority key is
dispatched.  All ties are broken deterministically (priority key, then
dense node index; lowest-numbered free processor first), so schedules
are reproducible and "employed processors" is meaningful — tasks pack
onto low-numbered processors instead of spreading across all of them.

A schedule has one reference build,
:func:`repro.sched.eventloop.heapq_schedule` (flat lists and ``heapq``)
followed by :meth:`Schedule.from_arrays`, and one fast path, a single
fused call into the ctypes C kernel (:mod:`repro.sched.ckernel`) that
runs the event loop and derives the whole ``Schedule`` kernel.  The
fast path runs whenever the kernel compiled and passed its import-time
self-test.  Both produce byte-identical schedules.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..graphs.dag import TaskGraph
from ..obs import ObsLog, live
from .ckernel import CKERNEL_ACTIVE, plan_schedule_c
from .eventloop import heapq_schedule
from .priorities import PriorityPolicy, priority_keys
from .schedule import Schedule

__all__ = ["list_schedule"]


def list_schedule(graph: TaskGraph, n_processors: int,
                  deadlines: Optional[np.ndarray] = None, *,
                  policy: Union[str, PriorityPolicy] = "edf",
                  obs: Optional[ObsLog] = None) -> Schedule:
    """Schedule ``graph`` on ``n_processors`` identical processors.

    Args:
        graph: the task graph (weights in cycles).
        n_processors: number of available processors (>= 1).
        deadlines: per-task deadline vector for deadline-based policies
            (EDF).  May be omitted for structural policies; EDF then
            falls back to bottom-level-free zeros, which degenerates to
            index order — pass real deadlines for meaningful EDF.
        policy: priority policy name or callable (see
            :mod:`repro.sched.priorities`).
        obs: optional :class:`~repro.obs.ObsLog` recording a
            per-schedule build span and dispatch counters (no effect on
            the schedule).

    Returns:
        A :class:`Schedule` in cycle units.
    """
    if n_processors < 1:
        raise ValueError("n_processors must be >= 1")
    o = live(obs)
    with o.span("sched.list_schedule", category="sched",
                tasks=graph.n, procs=n_processors):
        schedule = _list_schedule(graph, n_processors, deadlines, policy)
    o.count("sched.schedules_built")
    o.count("sched.tasks_dispatched", graph.n)
    return schedule


def _list_schedule(graph: TaskGraph, n_processors: int,
                   deadlines: Optional[np.ndarray],
                   policy: Union[str, PriorityPolicy]) -> Schedule:
    """The uninstrumented scheduler body — see :func:`list_schedule`."""
    if deadlines is None:
        deadlines = np.zeros(graph.n)
    keys = priority_keys(graph, deadlines, policy)
    if CKERNEL_ACTIVE:
        # One C call replays heapq_schedule's event loop (identical pop
        # order), derives the whole Schedule kernel exactly as
        # Schedule.from_arrays would, and computes the schedule's
        # required-frequency ratio against ``deadlines``.
        return Schedule._adopt(graph, n_processors, *plan_schedule_c(
            graph, keys, n_processors, deadlines))
    arrays = heapq_schedule(keys.tolist(), graph.weights_list,
                            graph.succ_indices, graph.in_degrees,
                            n_processors)
    return Schedule.from_arrays(graph, n_processors, *arrays)
