"""Batched multi-instance energy evaluation over CSR-packed schedules.

This is the one fast energy evaluator.  A :class:`ScheduleBatch`
stacks what a ladder sweep reads of many schedules — typically every
schedule a campaign chunk builds — in CSR form: one row per
employed-processor slot, and one concatenated internal-gap array.
:func:`batch_energy_sweep` evaluates a whole list of ladder sweeps
against it in one call of the native sweep
(:func:`repro.sched.ckernel.sweep_c`).  The campaign runner
(:func:`repro.exec.runner.evaluate_suite_instances`) plans a chunk of
instances, collects every ladder sweep the searches would perform, and
evaluates them all here; :func:`~repro.core.plans.sweep_energies` does
the same for one search, and
:func:`~repro.core.energy.schedule_energy_sweep` is the one-schedule
entry.

Exactness contract (see DESIGN.md, "Why the native sweep is exact"):
for every request, the returned breakdowns are *bitwise* equal to the
scalar :func:`~repro.core.energy.schedule_energy` loop over the
request's points, including the exception that loop raises first.
The native routine repeats the scalar loop's operations in the same
order (no contraction into FMAs), and its gap sums are a port of
numpy's pairwise summation.  Without the C kernel
(``REPRO_NO_CKERNEL``, or no compiler) the scalar loop itself runs.
Requests whose sleep model is a :class:`~repro.power.shutdown.SleepModel`
subclass also take the scalar loop, since the native routine
hard-codes the base class's shutdown rule.  A native request's row is
a :class:`SweepRows`: it builds each breakdown on first access, and a
search's selection reads only its totals until it picks a winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple, Union, \
    overload

import numpy as np

from ..power.dvs import OperatingPoint
from ..power.shutdown import SleepModel
from ..sched.ckernel import CKERNEL_ACTIVE, sweep_c
from ..sched.schedule import Schedule
from .energy import EnergyBreakdown, _horizon_error, _makespan_error, \
    _reference_sweep

__all__ = ["ScheduleBatch", "SweepRequest", "SweepRows",
           "batch_energy_sweep"]


@dataclass(frozen=True)
class SweepRequest:
    """One deferred ladder sweep against a batch member.

    Attributes:
        schedule_index: which :class:`ScheduleBatch` member to evaluate.
        points: operating points, evaluated in order (may be empty).
        deadline_seconds: the on-window, as in
            :func:`~repro.core.energy.schedule_energy`.
        sleep: PS gap rule; ``None`` keeps idle gaps on.
    """

    schedule_index: int
    points: Tuple[OperatingPoint, ...]
    deadline_seconds: float
    sleep: Optional[SleepModel] = None


class ScheduleBatch:
    """What a ladder sweep reads of many schedules, in CSR form.

    Member ``i`` owns the employed-processor slots
    ``member_offsets[i]:member_offsets[i + 1]``, in processor-id order;
    slot ``j`` runs processor ``employed_ids[j]`` with ``proc_busy[j]``
    busy cycles, last finish ``proc_last[j]`` and internal idle gaps
    ``gap_flat[gap_offsets[j]:gap_offsets[j + 1]]`` (cycles, in gap
    order).  ``makespans`` holds one makespan per member.  All arrays
    are frozen at construction, like the single-schedule kernel they
    are gathered from.

    ``schedules``, ``size``, ``n_tasks`` (tasks per member) and
    ``max_tasks`` describe the members themselves.

    Build instances through :meth:`from_schedules` only; the stacking
    reads the public kernel surface of each
    :class:`~repro.sched.schedule.Schedule`, so a batch is exactly as
    trustworthy as its members.
    """

    __slots__ = (
        "schedules", "size", "n_tasks", "max_tasks", "makespans",
        # employed-processor slots, CSR over members
        "member_offsets", "employed_ids", "proc_busy", "proc_last",
        # internal idle gaps, CSR over slots
        "gap_offsets", "gap_flat",
    )

    def __init__(self) -> None:
        raise TypeError(
            "ScheduleBatch cannot be constructed directly; use "
            "ScheduleBatch.from_schedules(...)")

    @classmethod
    def from_schedules(cls, schedules: Sequence[Schedule]
                       ) -> "ScheduleBatch":
        """Stack the sweep inputs of ``schedules`` into one batch.

        The members keep their order: ``batch.schedules[i]`` is
        ``schedules[i]`` and member ``i``'s slots describe it.

        Raises:
            ValueError: on an empty sequence.
        """
        schedules = tuple(schedules)
        if not schedules:
            raise ValueError("a ScheduleBatch needs at least one schedule")
        ids = [s.employed_processor_ids for s in schedules]
        counts = np.fromiter(map(len, ids), dtype=np.intp,
                             count=len(schedules))
        member_offsets = np.zeros(len(schedules) + 1, dtype=np.intp)
        np.cumsum(counts, out=member_offsets[1:])
        employed_ids = np.fromiter(chain.from_iterable(ids), dtype=np.intp,
                                   count=int(member_offsets[-1]))
        # Index every member's per-processor arrays at once: slot j is
        # row ``employed_ids[j] + (rows of the earlier members)``.
        n_procs = [s.n_processors for s in schedules]
        proc_base = np.zeros(len(schedules), dtype=np.intp)
        np.cumsum(n_procs[:-1], out=proc_base[1:])
        rows = employed_ids + np.repeat(proc_base, counts)
        gap_parts = [s.internal_gap_cycles for s in schedules]
        # Unused processors carry no tasks, hence no internal gaps: each
        # schedule's flat gap array is exactly the concatenation over its
        # employed processors in id order, so the slots' gap rows follow
        # one another and their lengths give the CSR offsets.  Member i's
        # gap bounds start at row ``proc_base[i] + i`` of the
        # concatenated bounds, so slot j's gap count is entry
        # ``rows[j] + i`` of their differences.
        gap_counts = np.diff(np.concatenate(
            [bounds for _, bounds in gap_parts]))[
                rows + np.repeat(np.arange(len(schedules)), counts)]
        gap_offsets = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(gap_counts, out=gap_offsets[1:])

        self = cls.__new__(cls)
        self.schedules = schedules
        self.size = len(schedules)
        self.n_tasks = np.array([s.graph.n for s in schedules],
                                dtype=np.intp)
        self.max_tasks = int(self.n_tasks.max())
        self.makespans = np.array([s.makespan for s in schedules])
        self.member_offsets = member_offsets
        self.employed_ids = employed_ids
        self.proc_busy = np.concatenate(
            [s.proc_busy_cycles for s in schedules])[rows]
        self.proc_last = np.concatenate(
            [s.proc_last_finish for s in schedules])[rows]
        self.gap_offsets = gap_offsets
        self.gap_flat = np.concatenate([flat for flat, _ in gap_parts])
        for a in (self.n_tasks, self.makespans, self.member_offsets,
                  self.employed_ids, self.proc_busy, self.proc_last,
                  self.gap_offsets, self.gap_flat):
            a.setflags(write=False)
        return self

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScheduleBatch(size={self.size}, "
                f"max_tasks={self.max_tasks}, "
                f"slots={self.employed_ids.size}, "
                f"gaps={self.gap_flat.size})")


class _Lanes:
    """The output of one native sweep call, shared by its requests' rows.

    ``totals`` holds every lane's :attr:`EnergyBreakdown.total`, with
    that property's additions in its order (numpy float64 addition is
    the same IEEE-754 operation as Python's); breakdowns are built on
    first access and kept.
    """

    __slots__ = ("out", "shut", "totals", "built")

    def __init__(self, out: np.ndarray, shut: np.ndarray) -> None:
        self.out = out
        self.shut = shut
        self.totals: List[float] = (
            ((out[:, 0] + out[:, 1]) + out[:, 2]) + out[:, 3]).tolist()
        self.built: List[Optional[EnergyBreakdown]] = [None] * len(shut)

    def get(self, lane: int) -> EnergyBreakdown:
        e = self.built[lane]
        if e is None:
            busy, idle, sleep, overhead = self.out[lane].tolist()
            e = self.built[lane] = EnergyBreakdown(
                busy, idle, sleep, overhead, int(self.shut[lane]))
        return e


class SweepRows(Sequence[EnergyBreakdown]):
    """One request's breakdowns from the native sweep, built on access.

    A read-only sequence equal (``==``) to the list the scalar loop
    returns.  A search reads every lane's total but builds only the
    breakdowns it keeps, so each :class:`EnergyBreakdown` is made on
    first access; :attr:`totals` reads the totals without building any.
    """

    __slots__ = ("_lanes", "_lo", "_hi")

    def __init__(self, lanes: _Lanes, lo: int, hi: int) -> None:
        self._lanes = lanes
        self._lo = lo
        self._hi = hi

    @property
    def totals(self) -> List[float]:
        """``[e.total for e in self]``, without building a breakdown."""
        return self._lanes.totals[self._lo:self._hi]

    def __len__(self) -> int:
        return self._hi - self._lo

    @overload
    def __getitem__(self, i: int) -> EnergyBreakdown: ...

    @overload
    def __getitem__(self, i: slice) -> List[EnergyBreakdown]: ...

    def __getitem__(self, i: Union[int, slice]
                    ) -> Union[EnergyBreakdown, List[EnergyBreakdown]]:
        if isinstance(i, slice):
            return [self._lanes.get(self._lo + j)
                    for j in range(*i.indices(len(self)))]
        j = i + len(self) if i < 0 else i
        if not 0 <= j < len(self):
            raise IndexError("sweep row index out of range")
        return self._lanes.get(self._lo + j)

    def __iter__(self) -> Iterator[EnergyBreakdown]:
        return map(self._lanes.get, range(self._lo, self._hi))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, SweepRows)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))


def _is_native(sleep: Optional[SleepModel]) -> bool:
    """Whether the native shutdown rule is ``sleep``'s own rule."""
    return sleep is None or type(sleep) is SleepModel


def batch_energy_sweep(
        batch: ScheduleBatch,
        requests: Sequence[SweepRequest],
) -> List[Sequence[EnergyBreakdown]]:
    """Evaluate many ladder sweeps against a batch in one native call.

    Returns one sequence per request (a :class:`SweepRows` on the
    native path, a list otherwise), bitwise equal to
    ``[schedule_energy(batch.schedules[r.schedule_index], p,
    r.deadline_seconds, sleep=r.sleep) for p in r.points]`` — including
    the exception that scalar loop would raise, with the same message,
    for the first offending (request, point) in request order.

    Args:
        batch: the stacked schedules.
        requests: sweeps to evaluate; requests may repeat a schedule
            index, mix sleep models, and carry empty point tuples
            (which yield empty result lists).

    Raises:
        ValueError: if some request's schedule does not fit in its
            window at some requested point.
        IndexError: on a schedule index outside the batch.
    """
    requests = list(requests)
    for r in requests:
        if not 0 <= r.schedule_index < batch.size:
            raise IndexError(
                f"schedule index {r.schedule_index} outside batch of "
                f"{batch.size}")
    if not CKERNEL_ACTIVE:
        return _reference_sweep(batch.schedules, requests)
    req: List[int] = []
    reqf: List[float] = []
    pts: List[float] = []
    for r in requests:
        # A custom model's lanes run as no-sleep lanes, which checks
        # their windows in order; the scalar loop replaces their rows.
        sleep = r.sleep if _is_native(r.sleep) else None
        req += (r.schedule_index, len(r.points), sleep is not None)
        reqf += (r.deadline_seconds, 0.0, 0.0) if sleep is None else \
            (r.deadline_seconds, sleep.sleep_power, sleep.overhead_energy)
        for p in r.points:
            pts += (p.frequency, p.energy_per_cycle, p.idle_power)
    out, shut, bad = sweep_c(
        np.array(req, dtype=np.intp).reshape(-1, 3),
        np.array(reqf).reshape(-1, 3), np.array(pts).reshape(-1, 3),
        batch.member_offsets, batch.makespans, batch.proc_busy,
        batch.proc_last, batch.gap_offsets, batch.gap_flat)
    if bad is not None:
        _raise_bad_lane(batch, requests, *bad)
    lanes = _Lanes(out, shut)
    results: List[Sequence[EnergyBreakdown]] = []
    lane = 0
    for r in requests:
        end = lane + len(r.points)
        results.append(SweepRows(lanes, lane, end) if _is_native(r.sleep)
                       else _reference_sweep(batch.schedules, [r])[0])
        lane = end
    return results


def _raise_bad_lane(batch: ScheduleBatch, requests: List[SweepRequest],
                    lane: int, slot: int) -> None:
    """Raise the scalar loop's error for the native sweep's first bad lane.

    Lanes run in request-major order, and within a lane the makespan
    guard comes before the employed slots in id order, exactly as
    :func:`~repro.core.energy.schedule_energy` checks them.
    """
    for r in requests:
        if lane < len(r.points):
            break
        lane -= len(r.points)
    f = r.points[lane].frequency
    horizon = r.deadline_seconds * f
    if slot < 0:
        raise _makespan_error(float(batch.makespans[r.schedule_index]),
                              horizon, f)
    raise _horizon_error(horizon, int(batch.employed_ids[slot]),
                         float(batch.proc_last[slot]))
