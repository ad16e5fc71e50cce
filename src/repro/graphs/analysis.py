"""Structural analysis of task graphs.

Provides the quantities the paper's evaluation is organised around:
critical path length (CPL), total work, and the *average parallelism*
``work / CPL`` (Section 5.2, Figs. 12–13), plus the level/ALAP machinery
the scheduler and the EDF deadline assignment are built on.

All lengths are *node-weighted* path lengths including both endpoints,
matching the paper's convention (deadlines are multiples of the CPL, the
time the graph needs on infinitely many processors at full speed).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import numpy as np

from .dag import TaskGraph

__all__ = [
    "top_levels",
    "bottom_levels",
    "critical_path_length",
    "critical_path",
    "total_work",
    "average_parallelism",
    "asap_times",
    "alap_times",
    "GraphStats",
    "graph_stats",
]


def top_levels(graph: TaskGraph) -> np.ndarray:
    """Longest weighted path *ending at* each node, inclusive of the node.

    Indexed by dense node index.  ``max(top_levels)`` equals the CPL.
    Computed by the C kernel when it is active; :func:`_top_levels_loop`
    is the bit-identical reference.
    """
    # Deferred: repro.sched imports this module.
    from ..sched.ckernel import CKERNEL_ACTIVE, levels_c

    if CKERNEL_ACTIVE:
        tl = np.empty(graph.n)
        levels_c(graph, None, tl)
        return tl
    return _top_levels_loop(graph)


def _top_levels_loop(graph: TaskGraph) -> np.ndarray:
    """Top levels by a Python loop in topological order (the reference)."""
    # Plain Python floats: the same IEEE additions as float64 arrays,
    # without elementwise ndarray indexing.
    tl = [0.0] * graph.n
    w = graph.weights_list
    preds = graph.pred_indices
    for v in graph.topo_indices:
        best = 0.0
        for p in preds[v]:
            if tl[p] > best:
                best = tl[p]
        tl[v] = best + w[v]
    return np.array(tl)


def _alap_loop(graph: TaskGraph, dl: List[float]) -> List[float]:
    """ALAP deadline propagation in place over ``dl`` (the reference).

    ``dl`` holds each task's own deadline; every task ends up with the
    tightest of it and ``dl[s] - w[s]`` over its successors ``s``.
    """
    w = graph.weights_list
    succs = graph.succ_indices
    for v in reversed(graph.topo_indices):
        dv = dl[v]
        for s in succs[v]:
            latest = dl[s] - w[s]
            if latest < dv:
                dv = latest
        dl[v] = dv
    return dl


def bottom_levels(graph: TaskGraph) -> np.ndarray:
    """Longest weighted path *starting at* each node, inclusive of the node.

    The classic HLFET list-scheduling priority; also used for ALAP.
    """
    bl = np.zeros(graph.n)
    w = graph.weights_array
    succs = graph.succ_indices
    for v in reversed(graph.topo_indices):
        best = 0.0
        for s in succs[v]:
            if bl[s] > best:
                best = bl[s]
        bl[v] = best + w[v]
    return bl


def critical_path_length(graph: TaskGraph) -> float:
    """Length of the longest weighted path (cycles at full speed)."""
    return float(top_levels(graph).max())


def critical_path(graph: TaskGraph) -> Tuple[Hashable, ...]:
    """One longest weighted path, as a tuple of node ids source→sink."""
    tl = top_levels(graph)
    w = graph.weights_array
    preds = graph.pred_indices
    v = int(np.argmax(tl))
    path: List[int] = [v]
    while preds[v]:
        v = max(preds[v], key=lambda p: tl[p])
        path.append(v)
    return tuple(graph.id_of(i) for i in reversed(path))


def total_work(graph: TaskGraph) -> float:
    """Sum of all task weights (cycles at full speed)."""
    return float(graph.weights_array.sum())


def average_parallelism(graph: TaskGraph) -> float:
    """``total work / CPL`` — the paper's parallelism measure (§5.2).

    A chain scores 1; ``k`` independent equal chains score ``k``.
    """
    return total_work(graph) / critical_path_length(graph)


def asap_times(graph: TaskGraph) -> np.ndarray:
    """Earliest possible start time of each node (infinite processors)."""
    return top_levels(graph) - graph.weights_array


def alap_times(graph: TaskGraph, deadline: float) -> np.ndarray:
    """Latest start time of each node such that ``deadline`` is met.

    Indexed by dense node index; computed from bottom levels.

    Raises:
        ValueError: if the deadline is shorter than the CPL (then no
            assignment exists even on infinitely many processors).
    """
    bl = bottom_levels(graph)
    cpl = float(bl.max())
    if deadline < cpl:
        raise ValueError(
            f"deadline {deadline:g} is below the critical path length {cpl:g}")
    return deadline - bl


class GraphStats:
    """Summary statistics of a task graph (the columns of Table 2)."""

    __slots__ = ("name", "n", "m", "cpl", "work", "parallelism")

    def __init__(self, graph: TaskGraph) -> None:
        self.name = graph.name
        self.n = graph.n
        self.m = graph.m
        self.cpl = critical_path_length(graph)
        self.work = total_work(graph)
        self.parallelism = self.work / self.cpl

    def as_dict(self) -> Dict[str, float]:
        return {"name": self.name, "nodes": self.n, "edges": self.m,
                "critical_path": self.cpl, "total_work": self.work,
                "parallelism": self.parallelism}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GraphStats({self.name!r}, n={self.n}, m={self.m}, "
                f"cpl={self.cpl:g}, work={self.work:g})")


def graph_stats(graph: TaskGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``."""
    return GraphStats(graph)
