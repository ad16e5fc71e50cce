"""The list scheduler's event loop over plain Python lists and ``heapq``.

This is the reference implementation of the LS-EDF dispatch loop
(paper Section 4) that :func:`repro.sched.list_scheduler.list_schedule`
runs whenever the compiled C kernel (:mod:`repro.sched.ckernel`) is
unavailable, and the oracle that kernel is self-tested against at
import.  It lives in its own module so both can import it.

Determinism: every heap holds *strictly totally ordered* entries —
``(priority key, task)`` pairs and ``(finish, task, processor)``
triples are unique because tasks are, and the free-processor heap holds
distinct ids — so the pop sequence of any correct min-heap is the same,
and the only floating-point arithmetic is ``finish = time + w[v]``.
The order is total only without NaN keys (NaN compares false both
ways), which :func:`repro.sched.priorities.priority_keys` rejects.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["heapq_schedule"]


def heapq_schedule(keys: Sequence[float], w: Sequence[float],
                   succs: Sequence[Sequence[int]],
                   in_degrees: Sequence[int], n_processors: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dispatch every task; ``(start, finish, processor)`` arrays.

    Whenever a processor is free and tasks are ready, the ready task
    with the smallest ``(key, index)`` goes to the lowest-numbered free
    processor; time then advances to the next completion, and every
    completion at that same instant is drained before dispatching
    again, so simultaneous releases compete on priority rather than
    pop order.  ``in_degrees`` is not modified.
    """
    # Plain Python scalars and lists: elementwise numpy indexing and
    # per-event helper calls dominated this loop's profile.
    n = len(keys)
    n_pending = list(in_degrees)
    ready: List[tuple] = [(keys[v], v) for v in range(n) if not n_pending[v]]
    heapq.heapify(ready)
    running: List[tuple] = []  # (finish_time, task, proc)
    free_procs = list(range(n_processors))  # min-heap: lowest id first

    starts = [0.0] * n
    finishes = [0.0] * n
    procs = [0] * n
    heappush, heappop = heapq.heappush, heapq.heappop
    time = 0.0
    scheduled = 0
    while scheduled < n:
        while ready and free_procs:
            _, v = heappop(ready)
            p = heappop(free_procs)
            starts[v] = time
            finish = time + w[v]
            finishes[v] = finish
            procs[v] = p
            heappush(running, (finish, v, p))
            scheduled += 1
        if not running:
            break  # all remaining tasks were sources already dispatched
        time, v, p = heappop(running)
        while True:
            heappush(free_procs, p)
            for s in succs[v]:
                n_pending[s] -= 1
                if not n_pending[s]:
                    heappush(ready, (keys[s], s))
            if not (running and running[0][0] <= time):
                break
            _, v, p = heappop(running)
    return (np.array(starts), np.array(finishes),
            np.array(procs, dtype=np.intp))
