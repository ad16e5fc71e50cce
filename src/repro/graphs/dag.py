"""Weighted directed acyclic task graphs.

A :class:`TaskGraph` is the application model of the paper (Section 3.1):
nodes are tasks, edges are dependences, node weights are execution times
in *cycles*.  Instances are immutable; transformations return new graphs.

Node identifiers may be any hashable (ints, strings).  Internally every
node also has a dense index ``0..n-1`` in insertion order, and the
schedulers operate on index-based numpy/tuple structures for speed — the
guides' advice: keep the hot loops on flat arrays, not dict lookups.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, \
    Mapping, Optional, Tuple, TypeVar

import numpy as np

__all__ = ["TaskGraph", "CycleError"]

NodeId = Hashable
_B = TypeVar("_B")


class CycleError(ValueError):
    """Raised when an edge set contains a directed cycle."""


class TaskGraph:
    """An immutable weighted DAG of tasks.

    Args:
        weights: mapping from node id to execution weight (cycles). Weights
            must be non-negative; zero is allowed (dummy STG entry/exit
            nodes) but at least one node must have positive weight.
        edges: iterable of ``(u, v)`` dependence pairs, meaning *u must
            finish before v starts*.  Duplicate edges are collapsed.
        name: optional label used in reports.

    Raises:
        KeyError: if an edge references an unknown node.
        CycleError: if the edges are not acyclic.
        ValueError: on negative weights or an empty graph.
    """

    __slots__ = (
        "name", "_ids", "_index", "_weights", "_preds", "_succs",
        "_topo", "_n_edges", "_in_degrees", "_weights_list", "_succ_csr",
        "_binding", "_fragment",
    )

    def __init__(self, weights: Mapping[NodeId, float],
                 edges: Iterable[Tuple[NodeId, NodeId]] = (),
                 *, name: str = "") -> None:
        if not weights:
            raise ValueError("a task graph needs at least one task")
        self.name = name
        self._ids: Tuple[NodeId, ...] = tuple(weights)
        self._index: Dict[NodeId, int] = {v: i for i, v in enumerate(self._ids)}
        if len(self._index) != len(self._ids):
            raise ValueError("duplicate node ids")
        w = np.asarray([float(weights[v]) for v in self._ids])
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("task weights must be finite and non-negative")
        self._weights = w
        self._weights.setflags(write=False)

        n = len(self._ids)
        pred_sets: list[set[int]] = [set() for _ in range(n)]
        succ_sets: list[set[int]] = [set() for _ in range(n)]
        n_edges = 0
        for u, v in edges:
            ui, vi = self._index[u], self._index[v]
            if ui == vi:
                raise CycleError(f"self-loop on node {u!r}")
            if vi not in succ_sets[ui]:
                succ_sets[ui].add(vi)
                pred_sets[vi].add(ui)
                n_edges += 1
        self._n_edges = n_edges
        self._preds: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in pred_sets)
        self._succs: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in succ_sets)
        self._topo = self._toposort()
        self._in_degrees: Optional[Tuple[int, ...]] = None
        self._weights_list: Optional[Tuple[float, ...]] = None
        self._succ_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._binding: Any = None
        self._fragment: Optional[bytes] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, g, *, weight_attr: str = "weight",
                      name: str | None = None) -> "TaskGraph":
        """Build from a ``networkx.DiGraph`` with node weights."""
        weights = {v: g.nodes[v].get(weight_attr, 1.0) for v in g.nodes}
        return cls(weights, g.edges(), name=name if name is not None
                   else str(g.name or ""))

    def to_networkx(self):
        """Convert to a ``networkx.DiGraph`` (weights in node attr ``weight``)."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for v in self._ids:
            g.add_node(v, weight=self.weight(v))
        for u, v in self.edges():
            g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------
    # Basic queries (id level)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self._ids)

    @property
    def m(self) -> int:
        """Number of dependence edges."""
        return self._n_edges

    @property
    def node_ids(self) -> Tuple[NodeId, ...]:
        """All node ids in insertion order."""
        return self._ids

    def __contains__(self, v: NodeId) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return self.n

    def index_of(self, v: NodeId) -> int:
        """Dense index of node ``v``."""
        return self._index[v]

    def id_of(self, i: int) -> NodeId:
        """Node id at dense index ``i``."""
        return self._ids[i]

    def weight(self, v: NodeId) -> float:
        """Execution weight (cycles) of node ``v``."""
        return float(self._weights[self._index[v]])

    def successors(self, v: NodeId) -> Tuple[NodeId, ...]:
        """Direct successors of ``v``."""
        return tuple(self._ids[i] for i in self._succs[self._index[v]])

    def predecessors(self, v: NodeId) -> Tuple[NodeId, ...]:
        """Direct predecessors of ``v``."""
        return tuple(self._ids[i] for i in self._preds[self._index[v]])

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Iterate over all dependence edges ``(u, v)``."""
        for ui, succs in enumerate(self._succs):
            u = self._ids[ui]
            for vi in succs:
                yield (u, self._ids[vi])

    def sources(self) -> Tuple[NodeId, ...]:
        """Nodes without predecessors."""
        return tuple(self._ids[i] for i in range(self.n) if not self._preds[i])

    def sinks(self) -> Tuple[NodeId, ...]:
        """Nodes without successors."""
        return tuple(self._ids[i] for i in range(self.n) if not self._succs[i])

    def topological_order(self) -> Tuple[NodeId, ...]:
        """Node ids in a topological order (deterministic for a given graph)."""
        return tuple(self._ids[i] for i in self._topo)

    # ------------------------------------------------------------------
    # Index-level views for the schedulers (hot path)
    # ------------------------------------------------------------------
    @property
    def weights_array(self) -> np.ndarray:
        """Read-only float array of weights, indexed by dense node index."""
        return self._weights

    @property
    def pred_indices(self) -> Tuple[Tuple[int, ...], ...]:
        """Predecessor indices per dense node index."""
        return self._preds

    @property
    def succ_indices(self) -> Tuple[Tuple[int, ...], ...]:
        """Successor indices per dense node index."""
        return self._succs

    @property
    def topo_indices(self) -> Tuple[int, ...]:
        """A topological order over dense indices."""
        return self._topo

    @property
    def in_degrees(self) -> Tuple[int, ...]:
        """Predecessor count per dense node index (cached).

        The schedulers seed their pending-predecessor counters from
        this on every build; graphs are immutable, so it is computed
        once.
        """
        if self._in_degrees is None:
            self._in_degrees = tuple(len(p) for p in self._preds)
        return self._in_degrees

    @property
    def weights_list(self) -> Tuple[float, ...]:
        """Weights as plain Python floats (cached).

        The schedulers' event loops run on Python scalars; this avoids
        a per-build ``weights_array.tolist()``.
        """
        if self._weights_list is None:
            self._weights_list = tuple(self._weights.tolist())
        return self._weights_list

    @property
    def succ_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Successor lists as a CSR pair ``(flat, offsets)`` (cached).

        ``flat[offsets[v]:offsets[v + 1]]`` are node ``v``'s successor
        indices in ascending order; both arrays are ``intp`` and frozen.
        The C scheduler kernel (:mod:`repro.sched.ckernel`) iterates
        this instead of the tuple-of-tuples :attr:`succ_indices`.
        """
        if self._succ_csr is None:
            offsets = np.zeros(len(self._succs) + 1, dtype=np.intp)
            np.cumsum([len(s) for s in self._succs], out=offsets[1:])
            flat = np.array(
                [s for succ in self._succs for s in succ], dtype=np.intp)
            flat.setflags(write=False)
            offsets.setflags(write=False)
            self._succ_csr = (flat, offsets)
        return self._succ_csr

    def binding(self, bind: Callable[["TaskGraph"], _B]) -> _B:
        """Process-local memo of ``bind(self)``.

        The C scheduler kernel (:mod:`repro.sched.ckernel`) keeps the
        data addresses of this graph's constant arrays here, so each
        graph is bound once per process.  Addresses mean nothing in
        another process, so pickling drops the memo (see
        :attr:`_CACHES`) and the receiving process binds again on first
        use.
        """
        b = self._binding
        if b is None:
            b = self._binding = bind(self)
        return b

    def fragment(self, build: Callable[["TaskGraph"], bytes]) -> bytes:
        """Process-local memo of ``build(self)``.

        The result cache (:mod:`repro.exec.cache`) keeps this graph's
        canonical JSON rendering here, so a graph digested at several
        deadlines is serialised once per process.  Like
        :meth:`binding`, pickling drops the memo (see :attr:`_CACHES`):
        it is as large as the graph's edge list, and the receiving
        process rebuilds it only if it digests the graph itself.
        """
        f = self._fragment
        if f is None:
            f = self._fragment = build(self)
        return f

    #: Derived caches and the process-local memos.  Pickling drops
    #: them, so a graph ships only its definition and the receiving
    #: process rebuilds them on first use.
    _CACHES = ("_in_degrees", "_weights_list", "_succ_csr", "_binding",
               "_fragment")

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        return None, {k: getattr(self, k) for k in self.__slots__
                      if k not in self._CACHES}

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        for k in self._CACHES:
            setattr(self, k, None)
        for k, v in state[1].items():
            setattr(self, k, v)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: float, *, name: str | None = None) -> "TaskGraph":
        """Return a copy with every weight multiplied by ``factor``.

        Used to instantiate the paper's coarse-grain (weight 1 = 3.1e6
        cycles) and fine-grain (3.1e4 cycles) scenarios from unit-weight
        STG graphs.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        weights = {v: self.weight(v) * factor for v in self._ids}
        return TaskGraph(weights, self.edges(),
                         name=name if name is not None else self.name)

    def relabeled(self, mapping: Mapping[NodeId, NodeId]) -> "TaskGraph":
        """Return a copy with node ids replaced via ``mapping``."""
        weights = {mapping[v]: self.weight(v) for v in self._ids}
        edges = ((mapping[u], mapping[v]) for u, v in self.edges())
        return TaskGraph(weights, edges, name=self.name)

    # ------------------------------------------------------------------
    def _toposort(self) -> Tuple[int, ...]:
        n = self.n
        indeg = [len(p) for p in self._preds]
        stack = [i for i in range(n) if indeg[i] == 0]
        stack.reverse()  # deterministic: prefer low indices first
        order: list[int] = []
        while stack:
            u = stack.pop()
            order.append(u)
            for v in self._succs[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        if len(order) != n:
            raise CycleError("dependence edges contain a cycle")
        return tuple(order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"TaskGraph({label} n={self.n}, m={self.m})"
