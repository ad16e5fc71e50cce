"""Seeded inputs of the three workloads.

The program only ever sees what these functions generate.  Seed 0 is
the default seed: there ``campaign`` is exactly the fixed fig10-style
set of the older campaign baselines (``stg_random_graph`` graph seeds
0..39 per size).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

#: Cycles per unit weight — the paper's STG scaling.
SCALE = 3.1e6

CAMPAIGN_SIZES = (100, 150, 200, 250)
CAMPAIGN_GRAPHS = 40  # per size: 160 instances
CAMPAIGN_FACTOR = 2.0

LARGE_SIZES = (1000, 2000)
#: Graphs, each at every factor: 128 instances, one in four of 2000
#: tasks (a 2000-task graph costs about four 1000-task ones).
LARGE_GRAPHS = 32
#: The paper's deadline factors (x critical path).
LARGE_FACTORS = (1.5, 2.0, 4.0, 8.0)

SERVE_SIZES = (50, 100)


def shaped_stg(n: int, shape: Any, rng: Any, *, name: str) -> Any:
    """An STG-style graph whose shape and realization draw separately.

    The generation method and its density parameter follow
    :func:`repro.graphs.generators.stg_random_graph`, drawn from
    ``shape``; the chosen generator builds the graph from ``rng``.  With
    ``shape is rng`` this is exactly ``stg_random_graph(n, rng)``.  The
    cost of scheduling a graph grows with its edge count, which the
    shape sets, so keying the shape on the graph's slot and the
    realization on the seed gives every seed the same mix of sparse and
    dense graphs and keeps runs with different seeds comparable.
    """
    from repro.graphs import generators as gen

    method = shape.random()
    if method < 0.35:
        p = float(np.exp(shape.uniform(np.log(2.0 / n), np.log(0.4))))
        return gen.sameprob_dag(n, p, rng, name=name)
    if method < 0.5:
        return gen.samepred_dag(n, float(shape.uniform(0.5, 4.0)), rng,
                                name=name)
    depth_frac = float(shape.uniform(0.05, 0.9))
    layers = min(n, max(2, int(round(n * depth_frac))))
    if method < 0.75:
        return gen.layered_dag(n, layers, rng,
                               edge_prob=float(shape.uniform(0.1, 0.8)),
                               name=name)
    return gen.layrpred_dag(n, layers, float(shape.uniform(1.0, 3.0)), rng,
                            name=name)


def campaign(seed: int) -> List[Tuple[Any, float]]:
    """160 fig10-style instances: 4 sizes x 40 graphs, deadline 2x CPL.

    Slot ``i`` of size ``n`` has the shape ``stg_random_graph(n, i)``
    draws; at seed 0 it is that graph, at any other seed a realization
    of the same shape.
    """
    from repro.graphs.analysis import critical_path_length

    out = []
    for n in CAMPAIGN_SIZES:
        for i in range(CAMPAIGN_GRAPHS):
            shape = np.random.default_rng(i)
            rng = shape if seed == 0 else np.random.default_rng([seed, n, i])
            g = shaped_stg(n, shape, rng, name=f"rand{n}").scaled(SCALE)
            out.append((g, CAMPAIGN_FACTOR * critical_path_length(g)))
    return out


def large_graph(n: int, slot: int, seed: int, *, name: str) -> Any:
    """One large graph: shape keyed by ``(n, slot)``, realization by seed."""
    return shaped_stg(n, np.random.default_rng([n, slot]),
                      np.random.default_rng([seed, n, slot]), name=name)


def campaign_large(seed: int) -> List[Tuple[Any, float]]:
    """128 instances: 24 graphs of 1000 and 8 of 2000 tasks, all factors.

    Interleaved by graph so every 32-instance chunk holds six graphs of
    1000 tasks and two of 2000 at all four factors, which keeps the
    pool's chunks of similar cost.
    """
    from repro.graphs.analysis import critical_path_length

    out = []
    slots = {n: 0 for n in LARGE_SIZES}
    for i in range(LARGE_GRAPHS):
        n = LARGE_SIZES[1] if i % 4 == 3 else LARGE_SIZES[0]
        slot = slots[n]
        slots[n] += 1
        g = large_graph(n, slot, seed, name=f"large{n}_{slot}").scaled(SCALE)
        cpl = critical_path_length(g)
        out.extend((g, f * cpl) for f in LARGE_FACTORS)
    return out


def request_body(graph: Any, factor: float = 2.0) -> Dict[str, Any]:
    """An explicit-graph ``POST /v1/schedule`` body for ``graph``."""
    return {
        "graph": {
            "name": graph.name,
            "weights": graph.weights_array.tolist(),
            "edges": [[u, v] for u, succs in enumerate(graph.succ_indices)
                      for v in succs],
        },
        "deadline_factor": factor,
        "policy": "edf",
    }


def serve_graphs(seed: int, count: int, offset: int) -> List[Any]:
    """``count`` distinct STG graphs of 50 or 100 tasks, slots from ``offset``.

    Slot ``j`` has a fixed size (one slot in four has 50 tasks, the
    rest 100) and a fixed shape; the seed draws the realization.  The
    hot set and the fresh-miss stream take disjoint slots, so no fresh
    request can collide with a hot key.
    """
    out = []
    for j in range(offset, offset + count):
        n = SERVE_SIZES[0] if j % 4 == 3 else SERVE_SIZES[1]
        # The trailing 1 keeps these realizations apart from the
        # campaign's, which use the same sizes and slot numbers.
        g = shaped_stg(n, np.random.default_rng([n, j]),
                       np.random.default_rng([seed, n, j, 1]),
                       name=f"s{seed}_{j}")
        out.append(g.scaled(SCALE))
    return out
