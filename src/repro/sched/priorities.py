"""Priority policies for the list scheduler.

A policy maps a (graph, deadline vector) pair to a numeric key per task;
the scheduler always dispatches the *smallest* key among ready tasks.
EDF is the paper's policy; the alternatives exist for the Section 4.4
question ("could another scheduling algorithm do better?") and the
corresponding ablation benchmarks.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np

from ..graphs.analysis import bottom_levels
from ..graphs.dag import TaskGraph

__all__ = ["PriorityPolicy", "priority_keys", "PRIORITY_POLICIES"]

PriorityPolicy = Callable[[TaskGraph, np.ndarray], np.ndarray]


def edf(graph: TaskGraph, deadlines: np.ndarray) -> np.ndarray:
    """Earliest deadline first — the paper's LS-EDF policy."""
    return np.asarray(deadlines, dtype=float)


def hlfet(graph: TaskGraph, deadlines: np.ndarray) -> np.ndarray:
    """Highest level first (HLFET): longest remaining path goes first."""
    return -bottom_levels(graph)


def fifo(graph: TaskGraph, deadlines: np.ndarray) -> np.ndarray:
    """Topological-order tie-break only (arrival order)."""
    keys = np.empty(graph.n)
    for rank, v in enumerate(graph.topo_indices):
        keys[v] = rank
    return keys


def largest_task_first(graph: TaskGraph, deadlines: np.ndarray) -> np.ndarray:
    """Heaviest ready task first (LPT-style)."""
    return -graph.weights_array.astype(float)


def smallest_task_first(graph: TaskGraph, deadlines: np.ndarray) -> np.ndarray:
    """Lightest ready task first (SPT-style; a deliberately weak policy)."""
    return graph.weights_array.astype(float)


def random_policy(seed: int = 0) -> PriorityPolicy:
    """A seeded random priority (baseline noise floor for ablations)."""

    def _random(graph: TaskGraph, deadlines: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((seed, graph.n)))
        return rng.permutation(graph.n).astype(float)

    _random.__name__ = f"random_{seed}"
    return _random


#: Registry used by the ablation benchmarks and the CLI.
PRIORITY_POLICIES: Dict[str, PriorityPolicy] = {
    "edf": edf,
    "hlfet": hlfet,
    "fifo": fifo,
    "lpt": largest_task_first,
    "spt": smallest_task_first,
    "random": random_policy(0),
}


def priority_keys(graph: TaskGraph, deadlines: np.ndarray,
                  policy: "str | PriorityPolicy" = "edf") -> np.ndarray:
    """Resolve ``policy`` (name or callable) and compute its keys.

    Keys may be infinite but not NaN: the scheduler's ready queue needs
    a total order on ``(key, index)``, and NaN compares false both ways.

    Raises:
        KeyError: for an unknown policy name.
        ValueError: if the policy returns a wrong-shaped key vector or
            a NaN key.
    """
    fn = PRIORITY_POLICIES[policy] if isinstance(policy, str) else policy
    keys = np.asarray(fn(graph, deadlines), dtype=float)
    if keys.shape != (graph.n,):
        raise ValueError(
            f"policy {getattr(fn, '__name__', fn)!r} returned shape "
            f"{keys.shape}, expected ({graph.n},)")
    # A sum of squares is NaN exactly when some key is NaN (inf * inf
    # is inf, and non-negative terms never cancel), at the cost of one
    # dot product.
    if math.isnan(keys @ keys):
        raise ValueError(
            f"policy {getattr(fn, '__name__', fn)!r} returned NaN "
            f"priority keys (first at index "
            f"{int(np.flatnonzero(np.isnan(keys))[0])})")
    return keys
