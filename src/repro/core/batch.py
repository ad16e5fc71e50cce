"""Batched multi-instance energy evaluation over padded dense arrays.

This is the one fast energy evaluator.  A :class:`ScheduleBatch`
stacks the kernel arrays of many schedules — typically every schedule
a campaign chunk builds — into padded dense matrices with validity
masks over the ragged tails, and :func:`batch_energy_sweep` evaluates a
whole list of ladder sweeps against them in one broadcast.  The
campaign runner (:func:`repro.exec.runner.evaluate_suite_instances`)
plans a chunk of instances, collects every ladder sweep the searches
would perform, and evaluates them all here;
:func:`~repro.core.plans.sweep_energies` does the same for one search,
and :func:`~repro.core.energy.schedule_energy_sweep` is the
one-schedule entry.

Exactness contract (see DESIGN.md, "Why batched padded sweeps are
exact"): for every request, the returned breakdowns are *bitwise* equal
to the scalar :func:`~repro.core.energy.schedule_energy` loop over the
request's points.  Three mechanisms make padding invisible at the bit
level:

* every per-gap expression (division to seconds, the shutdown rule) is
  elementwise, so broadcasting it over a flat element array performs
  the identical operation per element;
* per-processor gap sums are computed by *grouping rows by length* and
  reducing each group as a 2-D ``np.sum(axis=1)`` — numpy's pairwise
  summation depends only on a row's length and contents, so each row
  reduces exactly like the scalar path's 1-D sum (padding never enters
  a reduction);
* cross-processor accumulation folds sequentially over employed-
  processor *positions* (a Python loop over the padded axis, vectorized
  over all lanes), reproducing the scalar loop's left-to-right ``+=``
  order; padded positions contribute exactly ``+0.0``, which is a
  bitwise no-op on the non-negative partial sums.

The sleep rule is applied through ``sleep.would_shut_down`` in a single
vectorized call with a per-element idle power, which is elementwise
identical to the scalar path's per-gap-vector calls for
:class:`~repro.power.shutdown.SleepModel` (whose decision rule is
elementwise); a custom model must be elementwise-vectorized in both
arguments to keep the bitwise guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..power.dvs import OperatingPoint
from ..power.shutdown import SleepModel
from ..sched.schedule import Schedule
from .energy import EnergyBreakdown, _horizon_error, _makespan_error

__all__ = ["ScheduleBatch", "SweepRequest", "batch_energy_sweep"]


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
    """Kernel arrays of many schedules, stacked into padded matrices.

    Rows are batch members (one per schedule); ragged axes — tasks,
    employed processors, idle gaps — are padded to the batch maximum
    with a validity mask (task axis) or per-row counts (processor and
    gap axes).  All arrays are frozen at construction, like the
    single-schedule kernel they are gathered from.

    Build instances through :meth:`from_schedules` only; the stacking
    reads the public kernel surface of each
    :class:`~repro.sched.schedule.Schedule`, so a batch is exactly as
    trustworthy as its members.
    """

    __slots__ = (
        "schedules", "size", "n_tasks", "max_tasks",
        # padded per-task arrays + validity mask over the ragged tail
        "starts", "finishes", "procs", "task_mask",
        # employed-processor axis (compacted to employed ids, padded)
        "employed_counts", "employed_ids", "proc_busy", "proc_last",
        # internal idle gaps: flat elements + per (member, slot) CSR
        "gap_flat", "gap_counts", "gap_starts",
        "makespans",
    )

    def __init__(self) -> None:
        raise TypeError(
            "ScheduleBatch cannot be constructed directly; use "
            "ScheduleBatch.from_schedules(...)")

    @classmethod
    def from_schedules(cls, schedules: Sequence[Schedule]
                       ) -> "ScheduleBatch":
        """Stack the kernel arrays of ``schedules`` into one batch.

        The members keep their order: ``batch.schedules[i]`` is
        ``schedules[i]`` and every padded row ``i`` describes it.

        Raises:
            ValueError: on an empty sequence.
        """
        schedules = tuple(schedules)
        if not schedules:
            raise ValueError("a ScheduleBatch needs at least one schedule")
        b = len(schedules)
        n_tasks = np.array([s.graph.n for s in schedules], dtype=np.intp)
        max_tasks = int(n_tasks.max())
        starts = np.zeros((b, max_tasks))
        finishes = np.zeros((b, max_tasks))
        procs = np.zeros((b, max_tasks), dtype=np.intp)
        task_mask = np.zeros((b, max_tasks), dtype=bool)

        employed_counts = np.array(
            [s.employed_processors for s in schedules], dtype=np.intp)
        e_max = int(employed_counts.max())
        employed_ids = np.full((b, e_max), -1, dtype=np.intp)
        proc_busy = np.zeros((b, e_max))
        proc_last = np.zeros((b, e_max))
        gap_counts = np.zeros((b, e_max), dtype=np.intp)
        gap_starts = np.zeros((b, e_max), dtype=np.intp)

        gap_parts: List[np.ndarray] = []
        offset = 0
        for i, s in enumerate(schedules):
            n = s.graph.n
            starts[i, :n] = s.start_times
            finishes[i, :n] = s.finish_times
            procs[i, :n] = s.task_processors
            task_mask[i, :n] = True
            ids = np.array(s.employed_processor_ids, dtype=np.intp)
            e = ids.size
            employed_ids[i, :e] = ids
            proc_busy[i, :e] = s.proc_busy_cycles[ids]
            proc_last[i, :e] = s.proc_last_finish[ids]
            flat, bounds = s.internal_gap_cycles
            # Unused processors carry no tasks, hence no internal gaps:
            # the schedule's flat gap array is exactly the concatenation
            # over employed processors in id order.
            gap_counts[i, :e] = bounds[ids + 1] - bounds[ids]
            gap_starts[i, :e] = offset + bounds[ids]
            gap_parts.append(flat)
            offset += flat.size

        self = cls.__new__(cls)
        self.schedules = schedules
        self.size = b
        self.n_tasks = n_tasks
        self.max_tasks = max_tasks
        self.starts = starts
        self.finishes = finishes
        self.procs = procs
        self.task_mask = task_mask
        self.employed_counts = employed_counts
        self.employed_ids = employed_ids
        self.proc_busy = proc_busy
        self.proc_last = proc_last
        self.gap_flat = np.concatenate(gap_parts) if gap_parts \
            else np.empty(0)
        self.gap_counts = gap_counts
        self.gap_starts = gap_starts
        self.makespans = np.array([s.makespan for s in schedules])
        for a in (self.n_tasks, self.starts, self.finishes, self.procs,
                  self.task_mask, self.employed_counts, self.employed_ids,
                  self.proc_busy, self.proc_last, self.gap_flat,
                  self.gap_counts, self.gap_starts, self.makespans):
            a.setflags(write=False)
        return self

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScheduleBatch(size={self.size}, "
                f"max_tasks={self.max_tasks}, "
                f"max_employed={self.employed_ids.shape[1]})")


def _exact_row_sums(values: np.ndarray, row_starts: np.ndarray,
                    row_lengths: np.ndarray) -> np.ndarray:
    """Per-row sums of a ragged row-major array, bitwise like 1-D sums.

    Rows are grouped by length and each group reduced with one
    ``np.sum(axis=1)`` over a gathered contiguous matrix, so every row's
    reduction tree is identical to ``np.sum`` of that row alone —
    padding never participates.  Zero-length rows sum to ``0.0``.

    Returns:
        One float per row (J or s — whatever unit ``values`` carries).
    """
    n_rows = row_lengths.size
    out = np.zeros(n_rows)
    if values.size == 0 or n_rows == 0:
        return out
    for length in np.unique(row_lengths):
        n = int(length)
        if n == 0:
            continue
        rows = np.nonzero(row_lengths == length)[0]
        idx = row_starts[rows][:, None] + np.arange(n)[None, :]
        out[rows] = np.sum(values[idx], axis=1)
    return out


def _validate_requests(batch: ScheduleBatch, lane_sched: np.ndarray,
                       freqs: np.ndarray, horizons: np.ndarray) -> None:
    """Raise exactly what the scalar loop would, at the first offender.

    The scalar loop evaluates requests in order; within one request,
    :func:`~repro.core.energy.schedule_energy` checks each point in
    order — first the makespan window, then every employed processor's
    horizon guard.  Lanes are laid out in that exact
    (request, point) order, so the first bad lane is the first scalar
    failure.
    """
    makespan_bad = batch.makespans[lane_sched] > horizons * (1.0 + 1e-9)
    t = batch.proc_last[lane_sched]                     # (lanes, e_max)
    tol = 1e-9 * np.maximum(1.0, np.abs(t))
    slot_valid = np.arange(t.shape[1])[None, :] < \
        batch.employed_counts[lane_sched][:, None]
    proc_bad = (horizons[:, None] < (t - tol)) & slot_valid
    bad = makespan_bad | proc_bad.any(axis=1)
    if not bad.any():
        return
    lane = int(np.argmax(bad))
    s = lane_sched[lane]
    if makespan_bad[lane]:
        raise _makespan_error(float(batch.makespans[s]),
                              float(horizons[lane]), float(freqs[lane]))
    k = int(np.argmax(proc_bad[lane]))
    raise _horizon_error(float(horizons[lane]),
                         int(batch.employed_ids[s, k]),
                         float(batch.proc_last[s, k]))


def batch_energy_sweep(
        batch: ScheduleBatch,
        requests: Sequence[SweepRequest],
) -> List[List[EnergyBreakdown]]:
    """Evaluate many ladder sweeps against a batch in one broadcast.

    Returns one list per request, bitwise equal to
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
    out: List[List[EnergyBreakdown]] = [[] for _ in requests]
    for r in requests:
        if not 0 <= r.schedule_index < batch.size:
            raise IndexError(
                f"schedule index {r.schedule_index} outside batch of "
                f"{batch.size}")
    # ---- lane layout: one lane per (request, point), request-major ----
    lane_req_l: List[int] = []
    point_objs: List[OperatingPoint] = []
    for ri, r in enumerate(requests):
        for p in r.points:
            lane_req_l.append(ri)
            point_objs.append(p)
    n_lanes = len(lane_req_l)
    if n_lanes == 0:
        return out
    lane_req = np.array(lane_req_l, dtype=np.intp)
    lane_sched = np.array(
        [requests[ri].schedule_index for ri in lane_req_l], dtype=np.intp)
    freqs = np.array([p.frequency for p in point_objs])
    epc = np.array([p.energy_per_cycle for p in point_objs])
    ip = np.array([p.idle_power for p in point_objs])
    windows = np.array(
        [requests[ri].deadline_seconds for ri in lane_req_l])
    horizons = windows * freqs                     # cycles, one per lane

    _validate_requests(batch, lane_sched, freqs, horizons)

    e_counts = batch.employed_counts[lane_sched]   # employed procs/lane
    e_max = int(e_counts.max())

    # ---- busy: sequential fold over employed positions ---------------
    busy_v = np.zeros(n_lanes)
    busy_rows = batch.proc_busy[lane_sched]        # (lanes, e_max_batch)
    for pos in range(e_max):
        live_sel = np.nonzero(e_counts > pos)[0]
        busy_v[live_sel] = busy_v[live_sel] + \
            busy_rows[live_sel, pos] * epc[live_sel]

    # ---- gap rows: one row per (lane, employed position) -------------
    # Row-major flat element array; each row holds the processor's
    # internal gaps (in order) then the trailing gap when present —
    # exactly the vector the scalar path sums.
    t_rows = batch.proc_last[lane_sched]           # (lanes, e_max_batch)
    tol_rows = 1e-9 * np.maximum(1.0, np.abs(t_rows))
    trail = horizons[:, None] > (t_rows + tol_rows)
    slot_valid = np.arange(t_rows.shape[1])[None, :] < e_counts[:, None]
    trail &= slot_valid

    g_rows = batch.gap_counts[lane_sched]          # internal gaps/row
    row_valid = slot_valid
    row_lane = np.nonzero(row_valid)[0]
    row_pos = np.nonzero(row_valid)[1]
    row_g = g_rows[row_lane, row_pos]
    row_trail = trail[row_lane, row_pos]
    row_len = row_g + row_trail
    n_rows = row_len.size
    row_starts = np.zeros(n_rows, dtype=np.intp)
    if n_rows:
        np.cumsum(row_len[:-1], out=row_starts[1:])
    total = int(row_len.sum())

    elem_row = np.repeat(np.arange(n_rows, dtype=np.intp), row_len)
    within = np.arange(total, dtype=np.intp) - row_starts[elem_row]
    is_internal = within < row_g[elem_row]
    gap_src = batch.gap_starts[lane_sched][row_lane, row_pos]
    src = gap_src[elem_row] + within
    elem_lane = row_lane[elem_row]
    trailing_cycles = horizons[:, None] - t_rows   # (lanes, e_max_batch)
    if batch.gap_flat.size:
        internal_vals = batch.gap_flat[np.where(is_internal, src, 0)]
    else:  # no schedule in the batch has internal gaps
        internal_vals = np.zeros(total)
    cycles = np.where(
        is_internal, internal_vals,
        trailing_cycles[elem_lane, row_pos[elem_row]])
    seconds = cycles / freqs[elem_lane]            # the scalar's ``/ f``

    # ---- per-row sums, split by sleep treatment ----------------------
    lane_sleep = [requests[ri].sleep for ri in lane_req_l]
    idle_v = np.zeros(n_lanes)
    sleep_v = np.zeros(n_lanes)
    over_v = np.zeros(n_lanes)
    shut_v = np.zeros(n_lanes, dtype=np.intp)

    plain_lanes = np.array([s is None for s in lane_sleep])
    if plain_lanes.any():
        sums = _exact_row_sums(seconds, row_starts, row_len)
        _fold_plain(idle_v, sums, row_lane, row_pos, plain_lanes,
                    e_counts, e_max, ip)

    # Sleep lanes: group by model so each model is consulted once, in a
    # single elementwise call covering all of its lanes' gap elements.
    sleep_groups: Dict[int, List[int]] = {}
    models: Dict[int, SleepModel] = {}
    for li, m in enumerate(lane_sleep):
        if m is None:
            continue
        sleep_groups.setdefault(id(m), []).append(li)
        models[id(m)] = m
    for key, lanes_l in sleep_groups.items():
        model = models[key]
        lane_in = np.zeros(n_lanes, dtype=bool)
        lane_in[lanes_l] = True
        elem_sel = np.nonzero(lane_in[elem_lane])[0]
        shut_elem = np.zeros(total, dtype=bool)
        if elem_sel.size:
            decisions = np.asarray(model.would_shut_down(
                seconds[elem_sel], ip[elem_lane[elem_sel]]))
            shut_elem[elem_sel] = decisions
        stay_elem = ~shut_elem & lane_in[elem_lane]

        stay_len = np.bincount(elem_row[stay_elem], minlength=n_rows) \
            .astype(np.intp)
        shut_len = np.bincount(elem_row[shut_elem], minlength=n_rows) \
            .astype(np.intp)
        stay_vals = seconds[stay_elem]
        shut_vals = seconds[shut_elem]
        stay_starts = np.zeros(n_rows, dtype=np.intp)
        shut_starts = np.zeros(n_rows, dtype=np.intp)
        if n_rows:
            np.cumsum(stay_len[:-1], out=stay_starts[1:])
            np.cumsum(shut_len[:-1], out=shut_starts[1:])
        stay_sums = _exact_row_sums(stay_vals, stay_starts, stay_len)
        shut_sums = _exact_row_sums(shut_vals, shut_starts, shut_len)

        sp = model.sleep_power
        oh = model.overhead_energy
        row_of = _row_index_grid(row_lane, row_pos, n_lanes, e_max)
        for pos in range(e_max):
            live_sel = np.nonzero(lane_in & (e_counts > pos))[0]
            if live_sel.size == 0:
                continue
            rows = row_of[live_sel, pos]
            # Empty rows contribute exact +0.0 terms — bitwise no-ops,
            # matching the scalar path's ``continue`` on gap-less procs.
            idle_v[live_sel] = idle_v[live_sel] + stay_sums[rows] * \
                ip[live_sel]
            sleep_v[live_sel] = sleep_v[live_sel] + shut_sums[rows] * sp
            over_v[live_sel] = over_v[live_sel] + shut_len[rows] * oh
            shut_v[live_sel] = shut_v[live_sel] + shut_len[rows]

    # ---- assemble per-request outputs --------------------------------
    for li in range(n_lanes):
        out[int(lane_req[li])].append(EnergyBreakdown(
            busy=float(busy_v[li]), idle=float(idle_v[li]),
            sleep=float(sleep_v[li]), overhead=float(over_v[li]),
            n_shutdowns=int(shut_v[li])))
    return out


def _row_index_grid(row_lane: np.ndarray, row_pos: np.ndarray,
                    n_lanes: int, e_max: int) -> np.ndarray:
    """Map (lane, employed position) to its row id (-1 where absent)."""
    grid = np.full((n_lanes, e_max), -1, dtype=np.intp)
    grid[row_lane, row_pos] = np.arange(row_lane.size, dtype=np.intp)
    return grid


def _fold_plain(idle_v: np.ndarray, sums: np.ndarray,
                row_lane: np.ndarray, row_pos: np.ndarray,
                plain_lanes: np.ndarray, e_counts: np.ndarray,
                e_max: int, ip: np.ndarray) -> None:
    """Accumulate no-sleep idle energy in employed-position order."""
    n_lanes = idle_v.size
    row_of = _row_index_grid(row_lane, row_pos, n_lanes, e_max)
    for pos in range(e_max):
        live_sel = np.nonzero(plain_lanes & (e_counts > pos))[0]
        if live_sel.size == 0:
            continue
        rows = row_of[live_sel, pos]
        idle_v[live_sel] = idle_v[live_sel] + sums[rows] * ip[live_sel]
