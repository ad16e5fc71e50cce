"""Per-task deadline assignment.

The EDF list scheduler needs a deadline for every task, but the
application model supplies only a graph-level deadline ``D`` (or, for
unrolled KPNs, deadlines on output tasks).  Deadlines are propagated
backwards: a task must finish early enough that every successor can
still meet *its* deadline — the classic as-late-as-possible (ALAP)
assignment.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Optional

import numpy as np

from ..graphs.analysis import _alap_loop, _top_levels_loop
from ..graphs.dag import TaskGraph
from .ckernel import CKERNEL_ACTIVE, levels_c

__all__ = ["task_deadlines", "InfeasibleDeadlineError"]


class InfeasibleDeadlineError(ValueError):
    """The deadline is shorter than the critical path — no schedule can
    meet it even on infinitely many processors at the reference speed."""


def task_deadlines(graph: TaskGraph, deadline_cycles: float, *,
                   overrides: Optional[Mapping[Hashable, float]] = None,
                   check_feasible: bool = True) -> np.ndarray:
    """ALAP deadline (cycles) per dense node index.

    Args:
        graph: the task graph.
        deadline_cycles: graph-level deadline in cycles at the
            reference
            frequency; every task must finish by it.
        overrides: optional tighter deadlines for specific tasks (e.g.
            KPN output nodes).  Values above ``deadline_cycles`` are clamped.
        check_feasible: when true, raise if some task's deadline is below
            its earliest possible finish (top level), i.e. not even an
            ideal schedule could meet it.

    Returns:
        Array ``d`` with ``d[i]`` = latest finish time of node ``i``.

    Raises:
        ValueError: ``deadline_cycles`` or an override is not a positive
            finite number.
        InfeasibleDeadlineError: see ``check_feasible``.
        KeyError: if an override references an unknown task.
    """
    if not deadline_cycles > 0 or not math.isfinite(deadline_cycles):
        raise ValueError(
            f"deadline must be positive and finite, got {deadline_cycles}")
    d = np.full(graph.n, float(deadline_cycles))
    if overrides:
        for task, value in overrides.items():
            if not value > 0 or not math.isfinite(value):
                raise ValueError(
                    f"override deadline for {task!r} must be positive "
                    f"and finite, got {value}")
            i = graph.index_of(task)  # raises KeyError for unknown tasks
            d[i] = min(d[i], float(value))

    if CKERNEL_ACTIVE:
        # One native call computes both vectors, bit-identical to the
        # reference loops of repro.graphs.analysis.
        tl = np.empty(graph.n) if check_feasible else None
        levels_c(graph, d, tl)
    else:
        d = np.array(_alap_loop(graph, d.tolist()))
        tl = _top_levels_loop(graph) if check_feasible else None

    if tl is not None:
        # Earliest finish = top level.
        bad = np.nonzero(tl > d + 1e-9)[0]
        if bad.size:
            worst = int(bad[np.argmax(tl[bad] - d[bad])])
            raise InfeasibleDeadlineError(
                f"task {graph.id_of(worst)!r} cannot finish before its "
                f"deadline {d[worst]:g} (earliest finish {tl[worst]:g}); "
                f"deadline below the critical path?")
    return d
