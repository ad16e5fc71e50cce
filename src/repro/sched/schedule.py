"""Schedule data structures — the array-native schedule kernel.

A :class:`Schedule` maps every task of a graph to a processor and a
``[start, finish)`` interval measured in *cycles* (the task weights'
unit).  Because all processors share one operating frequency that is
constant over the whole schedule (the paper's execution model), the same
cycle-level schedule is valid at every frequency — wall-clock times are
obtained by dividing by ``f``.  That lets the heuristics schedule once
and sweep operating points cheaply.

Internally a schedule is *array-native*: dense per-task ``starts`` /
``finishes`` / ``procs`` vectors plus a per-processor CSR layout (task
order by processor, start, finish and index, plus offset bounds) from
which per-processor busy-cycle totals, last-finish times and
**internal** idle-gap lengths are precomputed once at construction.
Internal gaps (the leading gap and the gaps between consecutive tasks
of one processor) are frequency-invariant in cycles; only the trailing
gap up to the horizon depends on the operating point, which is what
makes the one-shot DVS-ladder sweep of
:func:`repro.core.batch.batch_energy_sweep` possible.

:meth:`Schedule._init_arrays` is the reference derive.  The C kernel's
fused call (:func:`repro.sched.ckernel.plan_schedule_c`) returns the
same arrays, byte for byte, and the private constructor
``Schedule._adopt`` takes them as they are.

:class:`Placement` objects are a *lazily materialized view*: the
schedulers build schedules without ever creating them, and callers that
iterate placements (validation, rendering, the simulator) pay for the
objects only on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.dag import TaskGraph

__all__ = ["Placement", "Schedule", "same_kernel"]


@dataclass(frozen=True, slots=True)
class Placement:
    """Assignment of one task: processor and cycle interval."""

    task: Hashable
    processor: int
    start: float     #: start time (cycles)
    finish: float    #: finish time (cycles); ``start + weight``


class Schedule:
    """A complete non-preemptive schedule of a task graph.

    Args:
        graph: the scheduled task graph.
        n_processors: number of processors the scheduler was given.  The
            number actually *employed* (that received at least one task)
            may be smaller; see :attr:`employed_processors`.
        placements: one placement per task.

    The placement-sequence constructor validates indexing (every task
    placed exactly once, processors in range); use
    :func:`repro.sched.validate.validate_schedule` to check precedence
    and overlap invariants.  The schedulers use the zero-copy
    :meth:`from_arrays` path, or, for list schedules on the C kernel,
    ``_adopt``.
    """

    __slots__ = (
        "graph", "n_processors", "makespan",
        # dense per-task arrays (indexed by dense node index)
        "_starts", "_finish", "_procs",
        # CSR layout: task order sorted by (proc, start, finish, index)
        # + offsets
        "_order", "_bounds",
        # per-processor precomputations
        "_proc_busy", "_proc_last", "_employed", "_employed_ids",
        # internal idle gaps, flat with per-processor offsets
        "_gap_lo", "_gap_hi", "_gap_len", "_gap_bounds",
        # lazily materialized Placement views
        "_by_task", "_by_proc",
        # the fused call's required-frequency ratio (see _adopt) or None
        "_build_ratio",
    )

    def __init__(self, graph: TaskGraph, n_processors: int,
                 placements: Sequence[Placement]) -> None:
        if n_processors < 1:
            raise ValueError("n_processors must be >= 1")
        by_task: Dict[Hashable, Placement] = {}
        by_proc: List[List[Placement]] = [[] for _ in range(n_processors)]
        for pl in placements:
            if pl.task in by_task:
                raise ValueError(f"task {pl.task!r} placed twice")
            if not 0 <= pl.processor < n_processors:
                raise ValueError(
                    f"placement on processor {pl.processor} out of range")
            by_task[pl.task] = pl
            by_proc[pl.processor].append(pl)
        if len(by_task) != graph.n:
            missing = set(graph.node_ids) - set(by_task)
            raise ValueError(f"unplaced tasks: {sorted(map(str, missing))[:5]}")
        index_of = graph.index_of
        for lst in by_proc:
            lst.sort(key=lambda p: (p.start, p.finish, index_of(p.task)))

        n = graph.n
        starts = np.empty(n)
        finishes = np.empty(n)
        procs = np.empty(n, dtype=np.intp)
        order = np.empty(n, dtype=np.intp)
        k = 0
        for lst in by_proc:
            for pl in lst:
                i = index_of(pl.task)
                starts[i] = pl.start
                finishes[i] = pl.finish
                procs[i] = pl.processor
                order[k] = i
                k += 1
        # The per-processor lists were built anyway: keep them as the
        # already-materialized view.
        self._build_ratio = None
        self._by_task = by_task
        self._by_proc = tuple(tuple(lst) for lst in by_proc)
        self._init_arrays(graph, n_processors, starts, finishes, procs, order)

    @classmethod
    def from_arrays(cls, graph: TaskGraph, n_processors: int,
                    starts: np.ndarray, finishes: np.ndarray,
                    procs: np.ndarray) -> "Schedule":
        """Zero-copy construction from dense per-task arrays.

        ``starts``, ``finishes`` and ``procs`` are indexed by dense node
        index (``graph.index_of``).  The arrays are adopted as-is (no
        copy when they are contiguous and of the right dtype) and frozen
        — the caller must hand over ownership.  No ``Placement`` objects
        are built; the placement view materializes lazily on first
        access.

        Raises:
            ValueError: on wrong-length arrays or out-of-range
                processor ids.
        """
        if n_processors < 1:
            raise ValueError("n_processors must be >= 1")
        starts = np.ascontiguousarray(starts, dtype=float)
        finishes = np.ascontiguousarray(finishes, dtype=float)
        procs = np.ascontiguousarray(procs, dtype=np.intp)
        n = graph.n
        if starts.shape != (n,) or finishes.shape != (n,) \
                or procs.shape != (n,):
            raise ValueError(
                f"schedule arrays must have shape ({n},), got "
                f"{starts.shape}/{finishes.shape}/{procs.shape}")
        if n and (int(procs.min()) < 0 or int(procs.max()) >= n_processors):
            bad = int(procs.min()) if int(procs.min()) < 0 else int(procs.max())
            raise ValueError(f"placement on processor {bad} out of range")
        self = cls.__new__(cls)
        self._by_task = None
        self._by_proc = None
        self._build_ratio = None
        # Within one processor: by start, then finish (a zero-weight
        # task precedes a task starting at its instant), then dense
        # index (lexsort is stable).
        order = np.lexsort((finishes, starts, procs))
        self._init_arrays(graph, n_processors, starts, finishes, procs, order)
        return self

    @classmethod
    def _adopt(cls, graph: TaskGraph, n_processors: int,
               starts: np.ndarray, finishes: np.ndarray, procs: np.ndarray,
               order: np.ndarray, bounds: np.ndarray, busy: np.ndarray,
               last: np.ndarray, employed_ids: Tuple[int, ...],
               gap_lo: np.ndarray, gap_hi: np.ndarray, gap_len: np.ndarray,
               gap_bounds: np.ndarray, makespan: float,
               build_ratio: Optional[float] = None) -> "Schedule":
        """Adopt a complete, frozen kernel (the fused C call's output).

        The arguments are exactly what :meth:`_init_arrays` derives from
        ``(starts, finishes, procs, order)``; nothing is checked or
        copied.  ``build_ratio`` is the fused call's
        :meth:`required_reference_frequency` of the deadline vector
        ``list_schedule`` received; only
        :class:`repro.core.plans.PlanCache` reads it, right after a
        build it made with that vector.
        """
        self = cls.__new__(cls)
        self._by_task = None
        self._by_proc = None
        self._build_ratio = build_ratio
        self.graph = graph
        self.n_processors = n_processors
        self._starts = starts
        self._finish = finishes
        self._procs = procs
        self._order = order
        self._bounds = bounds
        self._proc_busy = busy
        self._proc_last = last
        self._employed = len(employed_ids)
        self._employed_ids = employed_ids
        self._gap_lo = gap_lo
        self._gap_hi = gap_hi
        self._gap_len = gap_len
        self._gap_bounds = gap_bounds
        self.makespan = makespan
        return self

    def _init_arrays(self, graph: TaskGraph, n_processors: int,
                     starts: np.ndarray, finishes: np.ndarray,
                     procs: np.ndarray, order: np.ndarray) -> None:
        """Shared kernel: adopt dense arrays + per-processor order.

        ``order`` sorts the tasks by (processor, start, finish, index).
        The fused C call (:func:`repro.sched.ckernel.plan_schedule_c`)
        derives the same arrays with the same operations; this is the
        reference.
        """
        self.graph = graph
        self.n_processors = n_processors
        self._starts = starts
        self._finish = finishes
        self._procs = procs
        self._order = order
        for a in (starts, finishes, procs, order):
            a.setflags(write=False)

        n = graph.n
        sorted_procs = procs[order]
        sorted_starts = starts[order]
        sorted_finishes = finishes[order]
        bounds = np.searchsorted(sorted_procs, np.arange(n_processors + 1))
        self._bounds = bounds
        nonempty = bounds[1:] > bounds[:-1]

        # Busy cycles per processor: cumulative-sum differences over the
        # sorted duration vector.  Exact for the integer
        # cycle weights of every bundled workload.
        prefix = np.empty(n + 1)
        prefix[0] = 0.0
        np.cumsum(sorted_finishes - sorted_starts, out=prefix[1:])
        self._proc_busy = prefix[bounds[1:]] - prefix[bounds[:-1]]

        # Last finish time per processor (in start order), 0.0 if unused.
        last = np.zeros(n_processors)
        last[nonempty] = sorted_finishes[bounds[1:][nonempty] - 1]
        self._proc_last = last

        self._employed = int(np.count_nonzero(nonempty))
        self._employed_ids = tuple(np.nonzero(nonempty)[0].tolist())

        # Internal idle gaps: before each task, the processor is idle
        # from the previous finish (or 0.0 at the head of the row) to
        # the task's start.  These are frequency-invariant in cycles.
        prev = np.empty(n)
        if n:
            prev[1:] = sorted_finishes[:-1]
            prev[bounds[:-1][nonempty]] = 0.0
        keep = sorted_starts > prev
        self._gap_lo = prev[keep]
        self._gap_hi = sorted_starts[keep]
        self._gap_len = self._gap_hi - self._gap_lo
        self._gap_bounds = np.searchsorted(sorted_procs[keep],
                                           np.arange(n_processors + 1))
        for a in (self._proc_busy, self._proc_last, self._gap_lo,
                  self._gap_hi, self._gap_len):
            a.setflags(write=False)
        self.makespan = float(finishes.max()) if n else 0.0

    # ------------------------------------------------------------------
    # Lazily materialized Placement view
    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        ids = self.graph.node_ids
        starts, finishes = self._starts, self._finish
        order, bounds = self._order, self._bounds
        by_task: Dict[Hashable, Placement] = {}
        by_proc = []
        for p in range(self.n_processors):
            row = []
            for i in order[bounds[p]:bounds[p + 1]].tolist():
                pl = Placement(task=ids[i], processor=p,
                               start=float(starts[i]),
                               finish=float(finishes[i]))
                row.append(pl)
                by_task[ids[i]] = pl
            by_proc.append(tuple(row))
        self._by_task = by_task
        self._by_proc = tuple(by_proc)

    def placement(self, task: Hashable) -> Placement:
        """The placement of ``task``."""
        if self._by_task is None:
            self._materialize()
        return self._by_task[task]

    def processor_tasks(self, proc: int) -> Tuple[Placement, ...]:
        """Placements on ``proc``, ordered by start time."""
        if self._by_proc is None:
            self._materialize()
        return self._by_proc[proc]

    # ------------------------------------------------------------------
    # Array-level kernel surface (no Placement objects involved)
    # ------------------------------------------------------------------
    @property
    def start_times(self) -> np.ndarray:
        """Start time (cycles) per dense node index."""
        return self._starts

    @property
    def finish_times(self) -> np.ndarray:
        """Finish time (cycles) per dense node index."""
        return self._finish

    @property
    def task_processors(self) -> np.ndarray:
        """Processor id per dense node index."""
        return self._procs

    @property
    def employed_processors(self) -> int:
        """Number of processors that execute at least one task.

        Cached at construction — the search loops read it on every
        Phase-2 iteration.
        """
        return self._employed

    @property
    def employed_processor_ids(self) -> Tuple[int, ...]:
        """Ids of the processors that execute at least one task."""
        return self._employed_ids

    def is_employed(self, proc: int) -> bool:
        """Whether ``proc`` executes at least one task."""
        return self._bounds[proc + 1] > self._bounds[proc]

    def tasks_on(self, proc: int) -> np.ndarray:
        """Dense node indices on ``proc``, ordered by start time."""
        return self._order[self._bounds[proc]:self._bounds[proc + 1]]

    @property
    def proc_busy_cycles(self) -> np.ndarray:
        """Total executing cycles per processor (vector form)."""
        return self._proc_busy

    @property
    def proc_last_finish(self) -> np.ndarray:
        """Last finish time (cycles) per processor; 0.0 when unused."""
        return self._proc_last

    @property
    def internal_gap_cycles(self) -> Tuple[np.ndarray, np.ndarray]:
        """Internal idle-gap lengths (cycles) in CSR form.

        Returns ``(flat, offsets)``: gap lengths of processor ``p`` are
        ``flat[offsets[p]:offsets[p+1]]``, ordered by gap start.  The
        leading gap before a processor's first task is included; the
        horizon-dependent trailing gap is not (see
        :meth:`gap_lengths`).
        """
        return self._gap_len, self._gap_bounds

    def busy_cycles(self, proc: int) -> float:
        """Total executing cycles on ``proc``."""
        return float(self._proc_busy[proc])

    def idle_gaps(self, proc: int,
                  horizon_cycles: float) -> List[Tuple[float, float]]:
        """Idle intervals on ``proc`` within ``[0, horizon_cycles]``.

        Includes the leading gap before the first task and the trailing
        gap up to ``horizon_cycles``.  An entirely unused processor
        yields a single full-horizon gap.

        Raises:
            ValueError: if ``horizon_cycles`` is before the processor's
                last finish time (the schedule would not fit).
        """
        g0, g1 = self._gap_bounds[proc], self._gap_bounds[proc + 1]
        gaps = list(zip(self._gap_lo[g0:g1].tolist(),
                        self._gap_hi[g0:g1].tolist()))
        t = float(self._proc_last[proc])
        # Relative tolerance: horizons come from seconds-to-cycles
        # round trips, so representation error scales with magnitude.
        tol = 1e-9 * max(1.0, abs(t))
        if horizon_cycles < t - tol:
            raise ValueError(
                f"horizon {horizon_cycles:g} is before processor "
                f"{proc}'s last finish {t:g}")
        if horizon_cycles > t + tol:
            gaps.append((t, horizon_cycles))
        return gaps

    def gap_lengths(self, proc: int, horizon_cycles: float) -> np.ndarray:
        """Lengths (cycles) of the idle gaps of ``proc`` (vector form).

        Internal gaps come from the precomputed kernel arrays; only the
        trailing gap is computed against ``horizon_cycles``.
        """
        internal = self._gap_len[self._gap_bounds[proc]:
                                 self._gap_bounds[proc + 1]]
        t = float(self._proc_last[proc])
        tol = 1e-9 * max(1.0, abs(t))
        if horizon_cycles < t - tol:
            raise ValueError(
                f"horizon {horizon_cycles:g} is before processor "
                f"{proc}'s last finish {t:g}")
        if horizon_cycles > t + tol:
            return np.append(internal, horizon_cycles - t)
        return internal

    def required_reference_frequency(self, deadlines: np.ndarray) -> float:
        """Smallest frequency multiplier meeting per-task deadlines.

        ``deadlines`` is indexed by dense node index, in the same cycle
        units as the weights (i.e. cycles *at the reference frequency*).
        The schedule meets them when run at ``f >= r * f_ref`` where
        ``r = max(finish / deadline)`` is the returned ratio.

        Returns ``inf`` if any deadline is non-positive while its finish
        time is positive.
        """
        d = np.asarray(deadlines, dtype=float)
        if d.shape != self._finish.shape:
            raise ValueError("deadline vector has wrong length")
        if d.size and d.min() > 0:
            # The common case, and the same float as the chain below.
            return float((self._finish / d).max())
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(d > 0, self._finish / np.where(d > 0, d, 1.0),
                              np.where(self._finish > 0, np.inf, 0.0))
        return float(ratios.max()) if ratios.size else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Schedule({self.graph.name!r}, procs={self.n_processors}, "
                f"employed={self.employed_processors}, "
                f"makespan={self.makespan:g})")


#: The kernel arrays of a :class:`Schedule`.
_KERNEL_ARRAYS = ("_starts", "_finish", "_procs", "_order", "_bounds",
                  "_proc_busy", "_proc_last", "_gap_lo", "_gap_hi",
                  "_gap_len", "_gap_bounds")


def same_kernel(a: Schedule, b: Schedule) -> bool:
    """Whether two schedules hold byte-identical kernels.

    Every kernel array must match in dtype, shape and bytes (so ``0.0``
    and ``-0.0`` differ), and so must the processor count, the employed
    ids and the makespan's bits.
    """
    if a.n_processors != b.n_processors \
            or a.employed_processors != b.employed_processors \
            or a.employed_processor_ids != b.employed_processor_ids \
            or a.makespan.hex() != b.makespan.hex():
        return False
    for name in _KERNEL_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or x.shape != y.shape \
                or x.tobytes() != y.tobytes():
            return False
    return True
