"""Energy accounting for schedules.

Given a cycle-level schedule, an operating point, and the deadline
window, compute the total energy under the paper's model (Section 3):

* a task of ``w`` cycles costs ``w * energy_per_cycle(f)``;
* an employed processor is on from t = 0 to the deadline; while idle it
  dissipates ``P_DC + P_on``;
* with processor shutdown (PS), each idle gap longer than the breakeven
  interval is spent in deep sleep instead, paying the 483 µJ overhead
  plus 50 µW for the gap's duration;
* processors that execute no task at all are off and cost nothing.

One scalar reference and one fast evaluator are provided.
:func:`schedule_energy` is the scalar reference implementation: one
operating point, explicit per-processor loop.  Tests and the strict
audit compare the fast path against it.  The fast path is
:func:`repro.core.batch.batch_energy_sweep`, which evaluates many
ladder sweeps over many schedules in one call of the native sweep
(:func:`repro.sched.ckernel.sweep_c`) and reproduces the scalar results
*bitwise*; without the C kernel it runs the scalar loop
(``_reference_sweep``) instead.  :func:`schedule_energy_sweep` is its
one-schedule entry: ``schedule_energy_sweep(s, pts, D) ==
[schedule_energy(s, p, D) for p in pts]`` exactly.  Callers that sweep
many schedules should batch them through
:func:`repro.core.plans.sweep_energies` instead of calling it in a
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..power.dvs import OperatingPoint
from ..power.shutdown import SleepModel
from ..sched.schedule import Schedule

__all__ = ["EnergyBreakdown", "schedule_energy", "schedule_energy_sweep"]


def _makespan_error(makespan: float, horizon_cycles: float,
                    frequency_hz: float) -> ValueError:
    """The exact infeasible-window error all evaluators must raise.

    Shared by :func:`schedule_energy` and
    :func:`repro.core.batch.batch_energy_sweep` so the two evaluators
    cannot drift apart in message text.
    """
    return ValueError(
        f"schedule makespan {makespan:g} cycles exceeds the "
        f"deadline window {horizon_cycles:g} cycles at "
        f"{frequency_hz/1e9:.3f} GHz")


def _horizon_error(horizon_cycles: float, proc: int,
                   last_finish_cycles: float) -> ValueError:
    """The exact early-horizon error (see :meth:`Schedule.gap_lengths`)."""
    return ValueError(
        f"horizon {horizon_cycles:g} is before processor "
        f"{proc}'s last finish {last_finish_cycles:g}")


@dataclass(frozen=True, slots=True)
class EnergyBreakdown:
    """Where a schedule's energy goes (joules).

    Attributes:
        busy: energy of executing cycles.
        idle: energy of idle-but-on intervals.
        sleep: energy drawn in deep-sleep state.
        overhead: shutdown/wake transition energy.
        n_shutdowns: number of shutdown decisions taken.
    """

    busy: float
    idle: float
    sleep: float = 0.0
    overhead: float = 0.0
    n_shutdowns: int = 0

    @property
    def total(self) -> float:
        """Total energy (J)."""
        return self.busy + self.idle + self.sleep + self.overhead

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        if not isinstance(other, EnergyBreakdown):
            return NotImplemented
        return EnergyBreakdown(
            busy=self.busy + other.busy,
            idle=self.idle + other.idle,
            sleep=self.sleep + other.sleep,
            overhead=self.overhead + other.overhead,
            n_shutdowns=self.n_shutdowns + other.n_shutdowns,
        )

    def __radd__(self, other: object) -> "EnergyBreakdown":
        # Support ``sum(breakdowns)``, whose implicit start value is the
        # integer 0.
        if other == 0:
            return self
        return NotImplemented


def schedule_energy(schedule: Schedule, point: OperatingPoint,
                    deadline_seconds: float, *,
                    sleep: Optional[SleepModel] = None) -> EnergyBreakdown:
    """Total energy of running ``schedule`` at ``point`` until the deadline.

    This is the scalar reference implementation; the search loops use
    :func:`repro.core.batch.batch_energy_sweep`, which must agree with
    it bitwise.

    Args:
        schedule: cycle-level schedule (weights are cycles).
        point: the common operating point of all active processors.
        deadline_seconds: the on-window; every employed processor is
            powered from 0 to this time.  Must be at or after the
            schedule's makespan at ``point``.
        sleep: when given, apply the PS gap rule (shut down during gaps
            where that saves energy); when ``None``, idle gaps stay on.

    Raises:
        ValueError: if the schedule does not fit in the window at this
            operating point.
    """
    f = point.frequency
    horizon_cycles = deadline_seconds * f
    if schedule.makespan > horizon_cycles * (1.0 + 1e-9):
        raise _makespan_error(schedule.makespan, horizon_cycles, f)

    busy = 0.0
    idle = 0.0
    sleep_e = 0.0
    overhead = 0.0
    n_shutdowns = 0
    for proc in schedule.employed_processor_ids:  # others are fully off
        busy += schedule.busy_cycles(proc) * point.energy_per_cycle
        gaps = schedule.gap_lengths(proc, horizon_cycles) / f  # seconds
        if gaps.size == 0:
            continue
        if sleep is None:
            idle += float(gaps.sum()) * point.idle_power
        else:
            shut = np.asarray(sleep.would_shut_down(gaps, point.idle_power))
            stay = ~shut
            idle += float(gaps[stay].sum()) * point.idle_power
            sleep_e += float(gaps[shut].sum()) * sleep.sleep_power
            k = int(shut.sum())
            overhead += k * sleep.overhead_energy
            n_shutdowns += k
    return EnergyBreakdown(busy=busy, idle=idle, sleep=sleep_e,
                           overhead=overhead, n_shutdowns=n_shutdowns)


def _reference_sweep(schedules: Sequence[Schedule],
                     requests: Sequence) -> List[List[EnergyBreakdown]]:
    """The scalar loop :func:`repro.core.batch.batch_energy_sweep` equals.

    One breakdown list per :class:`~repro.core.batch.SweepRequest`,
    evaluated point by point with :func:`schedule_energy` against
    ``schedules[request.schedule_index]``.  The batch evaluator runs it
    when the C kernel is off, and for sleep models whose shutdown rule
    the native sweep does not know.
    """
    return [[schedule_energy(schedules[r.schedule_index], p,
                             r.deadline_seconds, sleep=r.sleep)
             for p in r.points] for r in requests]


def schedule_energy_sweep(
        schedule: Schedule, points: Sequence[OperatingPoint],
        deadline_seconds: float, *,
        sleep: Optional[SleepModel] = None) -> Sequence[EnergyBreakdown]:
    """Energy of ``schedule`` at every operating point, in one pass.

    A one-schedule :func:`repro.core.batch.batch_energy_sweep`.  One
    call costs a batch's setup, so a loop over many schedules should
    collect :class:`~repro.core.plans.PlannedSweep` entries and
    evaluate them with one :func:`repro.core.plans.sweep_energies`
    call instead.

    Returns a sequence equal to ``[schedule_energy(schedule, p,
    deadline_seconds, sleep=sleep) for p in points]``, bitwise,
    including the exceptions the scalar loop would raise (same type,
    same message, at the same first offending point).

    Args:
        schedule: cycle-level schedule (weights are cycles).
        points: operating points to evaluate, e.g. from
            :func:`repro.core.stretch.feasible_points`.
        deadline_seconds: the on-window, as in :func:`schedule_energy`.
        sleep: PS gap rule; ``None`` keeps idle gaps on.

    Raises:
        ValueError: if the schedule does not fit in the window at some
            requested point.
    """
    from .batch import ScheduleBatch, SweepRequest, batch_energy_sweep

    return batch_energy_sweep(
        ScheduleBatch.from_schedules([schedule]),
        [SweepRequest(0, tuple(points), deadline_seconds, sleep)])[0]
