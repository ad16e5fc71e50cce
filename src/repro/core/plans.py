"""Per-instance plan memoization + batched candidate evaluation.

PR 4 vectorized one schedule's ladder sweep and the batch layer
vectorized evaluation *across* instances; what remains *within* one
instance is redundant plan construction: LAMPS phase 1 (binary search
over the processor count), phase 2 (linear sweep), Fig. 6's
``energy_vs_processors`` and the six-heuristic suite all call
``list_schedule`` on overlapping ``(graph, n, policy)`` configurations
and re-derive the same deadline vectors, top levels and required-
frequency ratios.  A :class:`PlanCache` memoizes all of these for the
lifetime of one instance, and :func:`sweep_energies` evaluates every
planned ladder sweep of a search in a single
:func:`~repro.core.batch.batch_energy_sweep` broadcast.

Why plan reuse is exact (DESIGN.md §12 carries the full argument):

* A list schedule is a pure function of ``(graph, n, priority-key
  array)`` — the event loop of
  :func:`~repro.sched.list_scheduler.list_schedule` reads nothing else.
  Keys come from :func:`~repro.sched.priorities.priority_keys`, so the
  cache key is the *key-array fingerprint* (``keys.tobytes()``): EDF
  keys are the deadline vector itself (any deadline or override change
  changes the fingerprint and misses), while structural policies
  (HLFET, FIFO, LPT, SPT) are deadline-independent and legitimately
  share one entry across deadlines.
* **Width aliasing**: the scheduler's free processors form a min-heap,
  so a ready task only ever waits when *all* ``n`` processors are busy
  — which forces ``employed == n``.  Contrapositive: a schedule built
  on ``n`` processors that employs ``e < n`` never stalled, and the
  event loop replays identically for *every* ``n' >= e`` (the dispatch
  decisions only read the busy set, which stays inside ``{0..e-1}``).
  One stall-free schedule therefore serves every processor count at or
  above the graph's width — most of LAMPS phase 1's binary-search
  probes, and the full-spread S&S build.  Aliasing applies **only**
  when the builder *is* the canonical ``list_schedule``: the identity
  argument is a theorem about that scheduler, not about arbitrary
  substitutes (the anomaly tests monkeypatch module-level
  ``list_schedule`` names with synthetic schedules; those get exact
  per-count caching only).
* Deadline vectors, top levels and required-frequency ratios are pure
  functions of their (pinned, frozen) inputs — memoization returns the
  identical float/array contents.

Strict/audit runs use a fresh per-call cache with aliasing off
(:func:`plan_scope`), so ``AuditLog`` counters, intermediate-schedule
checks and their labels replay the historical per-call sequence
verbatim; shared caches accelerate unaudited runs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, \
    Sequence, Tuple, Union

import numpy as np

from ..audit.invariants import audit_intermediate_schedule
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

__all__ = ["PlanCache", "PlannedSweep", "plan_scope", "sweep_energies"]

#: Signature of a schedule builder (``list_schedule`` or a test double).
ScheduleBuilder = Callable[..., Schedule]


@dataclass
class PlannedSweep:
    """One deferred ladder sweep a search plan wants evaluated.

    ``schedule_energy_sweep(schedule, points, deadline_seconds,
    sleep=sleep)`` — or the batched equivalent via
    :func:`sweep_energies` — produces the breakdown list the search's
    finish step consumes.
    """

    schedule: Schedule
    points: Tuple[OperatingPoint, ...]
    sleep: Optional[SleepModel]


def sweep_energies(sweeps: Sequence[PlannedSweep],
                   deadline_seconds: Union[float, Sequence[float]]
                   ) -> List[List[EnergyBreakdown]]:
    """Evaluate planned ladder sweeps in one batched broadcast.

    Stacks the distinct schedules of ``sweeps`` into one
    :class:`~repro.core.batch.ScheduleBatch` and evaluates every sweep
    through a single :func:`~repro.core.batch.batch_energy_sweep` call.
    ``deadline_seconds`` is one window shared by every sweep (one
    search), or one window per sweep (a chunk of instances).
    Bitwise-identical to ``[schedule_energy_sweep(s.schedule,
    list(s.points), window, sleep=s.sleep) for s in sweeps]`` —
    including exceptions, which the batch kernel raises for the first
    offending request in request order, i.e. exactly where the serial
    loop would have raised first.
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
    """Memoizes the energy-independent plan work of one instance.

    Caches, per graph identity: ALAP deadline vectors
    (:meth:`deadline_vector`), top levels (:meth:`top_levels`),
    priority-key fingerprints, required-frequency ratios
    (:meth:`ratio`) and — the dominant cost — list schedules
    (:meth:`schedule`), keyed by ``(graph identity, priority-key
    fingerprint, processor count)`` with the width-aliasing fast path
    described in the module docstring.

    The intended lifetime is one instance (one ``(graph, deadline)``
    pair), shared across every search that instance runs; entries pin
    strong references to their graphs and arrays, so a longer-lived
    cache holds its inputs alive.

    Attributes:
        alias: whether width aliasing may serve a stall-free schedule
            for a larger requested count.  ``False`` replays the
            historical one-build-per-distinct-count behaviour exactly
            (used under strict/audit via :func:`plan_scope`).
        hits, misses: schedule-cache counters; also surfaced through
            ``obs`` as ``plan_cache.hits`` / ``plan_cache.misses``.
    """

    __slots__ = ("alias", "hits", "misses", "_graphs", "_deadline_vecs",
                 "_tops", "_key_fps", "_exact", "_stall_free", "_ratios")

    def __init__(self, *, alias: bool = True) -> None:
        self.alias = alias
        self.hits = 0
        self.misses = 0
        self._graphs: Dict[int, TaskGraph] = {}
        self._deadline_vecs: Dict[Tuple[int, float],
                                  Tuple[np.ndarray, bool]] = {}
        self._tops: Dict[int, np.ndarray] = {}
        self._key_fps: Dict[tuple, bytes] = {}
        self._exact: Dict[tuple, Schedule] = {}
        self._stall_free: Dict[tuple, Schedule] = {}
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
        the identical value.
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
                         policy: Union[str, PriorityPolicy]) -> bytes:
        gid = self._gid(graph)
        d = np.asarray(deadlines, dtype=float)
        key = (gid, policy, d.tobytes())
        fp = self._key_fps.get(key)
        if fp is None:
            fp = priority_keys(graph, d, policy).tobytes()
            self._key_fps[key] = fp
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
        priority-key fingerprint.  On a hit nothing is built, audited
        or counted — matching the historical local-dict caches, which
        only counted fresh builds.

        Width aliasing (see the module docstring) serves a stall-free
        cached schedule for any requested count at or above its
        employed width, and only when ``build`` is the canonical
        scheduler.
        """
        if build is None:
            build = list_schedule
        gid = self._gid(graph)
        canonical = build is list_schedule
        fp: object
        if canonical:
            # list_schedule substitutes zeros for a missing deadline
            # vector; fingerprint the same substitution.
            fp = self._key_fingerprint(
                graph,
                deadlines if deadlines is not None else np.zeros(graph.n),
                policy)
        else:
            fp = (policy,
                  None if deadlines is None
                  else np.asarray(deadlines, dtype=float).tobytes())
        key = (gid, fp, n)
        s = self._exact.get(key)
        if s is None and canonical and self.alias:
            free = self._stall_free.get((gid, fp))
            if free is not None and n >= free.employed_processors:
                s = free
                self._exact[key] = s
        o = live(obs)
        if s is not None:
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
        self._exact[key] = s
        if canonical and s.employed_processors < n and \
                (gid, fp) not in self._stall_free:
            self._stall_free[(gid, fp)] = s
        return s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlanCache(alias={self.alias}, hits={self.hits}, "
                f"misses={self.misses}, schedules={len(self._exact)})")


def plan_scope(plans: Optional[PlanCache],
               log: Optional[AuditLog]) -> PlanCache:
    """The cache a search call should actually use.

    Strict/audit runs (``log`` present) get a fresh per-call cache with
    aliasing off, replaying the historical local-dict behaviour byte
    for byte — audit counters, intermediate-schedule checks and labels
    fire once per distinct requested processor count, exactly as
    before.  Unaudited runs share ``plans`` when given, else get a
    fresh aliasing cache.
    """
    if plans is None or log is not None:
        return PlanCache(alias=log is None)
    return plans
