"""Plan memoization + batched candidate evaluation.

The batch layer vectorizes energy evaluation *across* schedules and
instances; what remains is redundant plan construction: LAMPS phase 1
(binary search over the processor count), phase 2 (linear sweep),
Fig. 6's ``energy_vs_processors`` and the six-heuristic suite all call
``list_schedule`` on overlapping ``(graph, n, policy)`` configurations
and re-derive the same deadline vectors, top levels and required-
frequency ratios, and the paper's campaigns run every graph at several
deadlines.  A :class:`PlanCache` memoizes all of these — for one
instance, or for a whole chunk of instances
(:func:`~repro.core.suite.paper_suite_batch` keeps one per chunk, so
a graph's schedules are built once for all of its deadlines) — and
:func:`sweep_energies` evaluates every planned ladder sweep of a search
in a single :func:`~repro.core.batch.batch_energy_sweep` call (one
native sweep).

Why plan reuse is exact (DESIGN.md §12 carries the full argument):

* A list schedule is a pure function of ``(graph, n, key order)``.
  The event loop of :func:`~repro.sched.list_scheduler.list_schedule`
  reads the priority keys (from
  :func:`~repro.sched.priorities.priority_keys`) only through
  ``(key, index)`` comparisons, NaN keys are rejected, and the order
  those comparisons define is fixed by the keys' stable-argsort
  permutation.  So the cache key is the *order fingerprint*
  (``np.argsort(keys, kind="stable").tobytes()``): two key vectors with
  the same permutation pop the same sequence from every heap and build
  byte-identical schedules.  EDF keys are the ALAP deadline vector,
  and moving the graph deadline shifts every task's deadline alike, so
  a graph's deadlines usually share one order and one schedule per
  count; when rounding or an override reorders two tasks, the
  fingerprint differs and the lookup misses.  Structural policies
  (HLFET, FIFO, LPT, SPT) are deadline-independent and share too.
* **Width aliasing**: the scheduler's free processors form a min-heap,
  so a ready task only ever waits when *all* ``n`` processors are busy
  — which forces ``employed == n``.  Contrapositive: a schedule built
  on ``n`` processors that employs ``e < n`` never stalled, and the
  event loop replays identically for *every* ``n' >= e`` (the dispatch
  decisions only read the busy set, which stays inside ``{0..e-1}``).
  One stall-free schedule therefore serves every processor count at or
  above the graph's width — most of LAMPS phase 1's binary-search
  probes, and the full-spread S&S build.  Aliasing and order keys
  apply **only** when the builder *is* the canonical
  ``list_schedule``: both arguments are theorems about that scheduler,
  not about arbitrary substitutes (the anomaly tests monkeypatch
  module-level ``list_schedule`` names with synthetic schedules; those
  get exact per-count caching keyed by the raw deadline bytes).
* Deadline vectors, top levels and required-frequency ratios are pure
  functions of their (pinned, frozen) inputs and stay keyed by the
  deadline — memoization returns the identical float/array contents.
  A canonical build on the C kernel brings its own ratio against the
  deadline vector it was built with; the kernel repeats
  ``required_reference_frequency``'s divisions and takes an exact
  maximum, so the recorded float is the same one.  A schedule served
  for another deadline gets its ratio against that deadline from
  :meth:`PlanCache.ratio`.

Strict/audit runs share the production cache, aliasing and order keys
included.  A fresh build is validated structurally and counted as
built; a *shared serve* — a schedule served for a processor count it
was not built on (width alias) or for a priority-key vector other than
the one it was built from — is verified instead: the request is built
once more and compared bytewise with the served schedule
(:func:`~repro.audit.invariants.audit_alias`).  That verification
build is neither cached nor counted, so hits, misses and the obs
counters are those of an unaudited run.  Every ratio a build brings
along is compared bitwise with ``required_reference_frequency``
(:func:`~repro.audit.invariants.audit_ratio`), one passed check each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, \
    Sequence, Tuple, Union

import numpy as np

from ..audit.invariants import audit_alias, audit_intermediate_schedule, \
    audit_ratio
from ..audit.report import AuditLog
from ..graphs.analysis import top_levels as _graph_top_levels
from ..graphs.dag import TaskGraph
from ..obs import ObsLog, live
from ..power.dvs import OperatingPoint
from ..power.shutdown import SleepModel
from ..sched.deadlines import task_deadlines
from ..sched.list_scheduler import list_schedule
from ..sched.priorities import PriorityPolicy, priority_keys
from ..sched.schedule import Schedule
from .batch import ScheduleBatch, SweepRequest, batch_energy_sweep
from .energy import EnergyBreakdown

__all__ = ["PlanCache", "PlannedSweep", "sweep_energies"]

#: Signature of a schedule builder (``list_schedule`` or a test double).
ScheduleBuilder = Callable[..., Schedule]


@dataclass
class PlannedSweep:
    """One deferred ladder sweep a search plan wants evaluated.

    :func:`sweep_energies` turns a list of these into the breakdown
    lists the search's finish step consumes: one breakdown per point,
    as ``schedule_energy(schedule, p, deadline_seconds, sleep=sleep)``
    would compute it.
    """

    schedule: Schedule
    points: Tuple[OperatingPoint, ...]
    sleep: Optional[SleepModel]


def sweep_energies(sweeps: Sequence[PlannedSweep],
                   deadline_seconds: Union[float, Sequence[float]]
                   ) -> List[Sequence[EnergyBreakdown]]:
    """Evaluate planned ladder sweeps in one batched sweep.

    Stacks the distinct schedules of ``sweeps`` into one
    :class:`~repro.core.batch.ScheduleBatch` and evaluates every sweep
    through a single :func:`~repro.core.batch.batch_energy_sweep` call.
    ``deadline_seconds`` is one window shared by every sweep (one
    search), or one window per sweep (a chunk of instances).
    Bitwise-identical to ``[[schedule_energy(s.schedule, p, window,
    sleep=s.sleep) for p in s.points] for s in sweeps]`` — including
    exceptions, which the batch kernel raises for the first offending
    (sweep, point) in order, i.e. exactly where that scalar loop would
    have raised first.  Loops that sweep one schedule at a time should
    collect their sweeps and make one call here: a batch's setup costs
    more than a short ladder's evaluation.
    """
    sweeps = list(sweeps)
    if not sweeps:
        return []
    windows = (list(deadline_seconds)
               if isinstance(deadline_seconds, Sequence)
               else [deadline_seconds] * len(sweeps))
    schedules: List[Schedule] = []
    index: Dict[int, int] = {}
    requests: List[SweepRequest] = []
    for ps, window in zip(sweeps, windows):
        key = id(ps.schedule)
        if key not in index:
            index[key] = len(schedules)
            schedules.append(ps.schedule)
        requests.append(SweepRequest(
            schedule_index=index[key], points=tuple(ps.points),
            deadline_seconds=window, sleep=ps.sleep))
    return batch_energy_sweep(ScheduleBatch.from_schedules(schedules),
                              requests)


class PlanCache:
    """Memoizes the energy-independent plan work of instances.

    Caches, per graph identity: ALAP deadline vectors
    (:meth:`deadline_vector`), top levels (:meth:`top_levels`),
    priority-key fingerprints, required-frequency ratios
    (:meth:`ratio`) and — the dominant cost — list schedules
    (:meth:`schedule`), keyed by ``(graph identity, key-order
    fingerprint, processor count)`` with the width-aliasing fast path
    described in the module docstring.

    One cache may serve any number of instances: every search of an
    instance (``evaluate_all``, ``lamps_search``), or every instance of
    a chunk (:func:`~repro.core.suite.paper_suite_batch`), where the
    instances of one graph share its schedules across deadlines.
    Entries pin strong references to their graphs and arrays, so the
    cache holds its inputs alive for its own lifetime.

    Attributes:
        hits, misses: schedule-cache counters; also surfaced through
            ``obs`` as ``plan_cache.hits`` / ``plan_cache.misses``.
    """

    __slots__ = ("hits", "misses", "_graphs", "_deadline_vecs",
                 "_tops", "_key_fps", "_exact", "_stall_free", "_ratios")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._graphs: Dict[int, TaskGraph] = {}
        self._deadline_vecs: Dict[Tuple[int, float],
                                  Tuple[np.ndarray, bool]] = {}
        self._tops: Dict[int, np.ndarray] = {}
        self._key_fps: Dict[tuple, Tuple[bytes, bytes, np.ndarray]] = {}
        # Schedules with the raw key bytes they were built from (None
        # for non-canonical builders, whose keys are exact).
        self._exact: Dict[tuple, Tuple[Schedule, Optional[bytes]]] = {}
        self._stall_free: Dict[tuple, Tuple[Schedule, bytes]] = {}
        self._ratios: Dict[Tuple[int, int], tuple] = {}

    def _gid(self, graph: TaskGraph) -> int:
        gid = id(graph)
        # Pin the graph so its id cannot be recycled while cached.
        self._graphs.setdefault(gid, graph)
        return gid

    # ------------------------------------------------------------------
    # Pure-function memos
    # ------------------------------------------------------------------
    def deadline_vector(self, graph: TaskGraph, deadline_cycles: float, *,
                        overrides: Optional[Mapping[Hashable, float]] = None,
                        check_feasible: bool = True) -> np.ndarray:
        """Memoized :func:`~repro.sched.deadlines.task_deadlines`.

        Override mappings are mutable caller state and are passed
        through uncached.  A vector first computed with
        ``check_feasible=False`` is recomputed (identical contents)
        when a checking caller asks for it, so the feasibility error
        still raises exactly where it historically did.
        """
        if overrides:
            return task_deadlines(graph, deadline_cycles,
                                  overrides=overrides,
                                  check_feasible=check_feasible)
        key = (self._gid(graph), float(deadline_cycles))
        hit = self._deadline_vecs.get(key)
        if hit is not None and (hit[1] or not check_feasible):
            return hit[0]
        d = task_deadlines(graph, deadline_cycles,
                           check_feasible=check_feasible)
        d.setflags(write=False)
        self._deadline_vecs[key] = (d, check_feasible)
        return d

    def top_levels(self, graph: TaskGraph) -> np.ndarray:
        """Memoized :func:`~repro.graphs.analysis.top_levels`."""
        gid = self._gid(graph)
        tl = self._tops.get(gid)
        if tl is None:
            tl = _graph_top_levels(graph)
            tl.setflags(write=False)
            self._tops[gid] = tl
        return tl

    def ratio(self, schedule: Schedule, deadlines: np.ndarray) -> float:
        """Memoized ``schedule.required_reference_frequency(deadlines)``.

        Keyed by object identity of both arguments (which the cache
        pins); a pure function of frozen inputs, so the cached float is
        the identical value.  A schedule :meth:`schedule` built on the C
        kernel arrives with its ratio against the deadline vector it was
        built with (bitwise equal to the numpy reference, which strict
        runs check), so the first lookup of that pair is a hit too.
        """
        key = (id(schedule), id(deadlines))
        ent = self._ratios.get(key)
        if ent is None:
            ent = (schedule, deadlines,
                   schedule.required_reference_frequency(deadlines))
            self._ratios[key] = ent
        return float(ent[2])

    # ------------------------------------------------------------------
    # Schedule memo (the dominant cost)
    # ------------------------------------------------------------------
    def _key_fingerprint(self, graph: TaskGraph, deadlines: np.ndarray,
                         policy: Union[str, PriorityPolicy]
                         ) -> Tuple[bytes, bytes, np.ndarray]:
        """``(order fingerprint, raw key bytes, pinned vector)``.

        A frozen vector (read-only and owning its data, as
        :meth:`deadline_vector` returns them) is looked up by identity —
        the entry pins it, so its id cannot be recycled — and any other
        vector by its bytes, which its owner may still change.
        """
        gid = self._gid(graph)
        d = np.asarray(deadlines, dtype=float)
        frozen = d is deadlines and d.base is None and not d.flags.writeable
        key = (gid, policy, id(d) if frozen else d.tobytes())
        fp = self._key_fps.get(key)
        if fp is None:
            keys = priority_keys(graph, d, policy)
            fp = self._key_fps[key] = (
                np.argsort(keys, kind="stable").tobytes(), keys.tobytes(), d)
        return fp

    def schedule(self, graph: TaskGraph, n: int,
                 deadlines: Optional[np.ndarray], *,
                 policy: Union[str, PriorityPolicy] = "edf",
                 obs: Optional[ObsLog] = None,
                 log: Optional[AuditLog] = None,
                 label: Optional[str] = None,
                 build: Optional[ScheduleBuilder] = None) -> Schedule:
        """Memoized ``list_schedule(graph, n, deadlines, policy=...)``.

        On a miss the schedule is built through ``build`` (the caller's
        module-level ``list_schedule`` reference, so monkeypatched
        builders are honoured), the audit counters/checks run exactly
        as an uncached build would, and the result is stored under its
        key-order fingerprint.  On a hit nothing is built or counted —
        matching the historical local-dict caches, which only counted
        fresh builds.

        Width aliasing (see the module docstring) serves a stall-free
        cached schedule for any requested count at or above its
        employed width, and only when ``build`` is the canonical
        scheduler.  With ``log`` set, each shared serve — a width alias,
        or a hit built from other priority keys with the same order —
        is verified against a fresh build of the request.
        """
        if build is None:
            build = list_schedule
        gid = self._gid(graph)
        canonical = build is list_schedule
        fp: object
        raw: Optional[bytes] = None
        if canonical:
            # list_schedule substitutes zeros for a missing deadline
            # vector; fingerprint the same substitution.
            fp, raw, _ = self._key_fingerprint(
                graph,
                deadlines if deadlines is not None else np.zeros(graph.n),
                policy)
        else:
            fp = (policy,
                  None if deadlines is None
                  else np.asarray(deadlines, dtype=float).tobytes())
        key = (gid, fp, n)
        ent = self._exact.get(key)
        aliased = False
        if ent is None and canonical:
            ent = self._stall_free.get((gid, fp))
            if ent is not None and n >= ent[0].employed_processors:
                self._exact[key] = ent
                aliased = True
            else:
                ent = None
        o = live(obs)
        if ent is not None:
            s = ent[0]
            if log is not None and (aliased or ent[1] != raw):
                audit_alias(s, build(graph, n, deadlines, policy=policy),
                            log, label or f"{graph.name or 'graph'}[n={n}]")
            self.hits += 1
            o.count("plan_cache.hits")
            return s
        s = build(graph, n, deadlines, policy=policy, obs=obs)
        self.misses += 1
        o.count("plan_cache.misses")
        if log is not None:
            log.schedules_built += 1
            audit_intermediate_schedule(
                s, log, label or f"{graph.name or 'graph'}[n={n}]")
        ratio = s._build_ratio
        if canonical and deadlines is not None and ratio is not None:
            # The fused C call computed the ratio against ``deadlines``
            # with the build, so ratio() needs no numpy pass for it.
            if log is not None:
                audit_ratio(s, deadlines, ratio, log,
                            label or f"{graph.name or 'graph'}[n={n}]")
            self._ratios[(id(s), id(deadlines))] = (s, deadlines, ratio)
        self._exact[key] = (s, raw)
        if canonical and s.employed_processors < n and \
                (gid, fp) not in self._stall_free:
            self._stall_free[(gid, fp)] = (s, raw)
        return s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlanCache(hits={self.hits}, "
                f"misses={self.misses}, schedules={len(self._exact)})")

