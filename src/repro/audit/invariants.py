"""The invariant checks behind strict mode.

Three layers, all side-effect-free on the results they inspect:

* **Structure** — every intermediate schedule the heuristics build is
  re-checked with :func:`repro.sched.validate.validate_schedule`
  (placement/precedence/overlap invariants).
* **Deadlines** — the finally chosen schedule meets every per-task
  deadline *at the chosen operating point* (not merely at full speed).
* **Energy conservation** — the reported :class:`EnergyBreakdown` has
  non-negative components, its ``busy + idle + sleep + overhead``
  matches an *independently* recomputed per-processor integral (walked
  directly over the placements, not through the accounting code under
  test), and a breakdown computed with processor shutdown never exceeds
  the no-shutdown energy of the same schedule at the same point.

Violations are reported through an :class:`~repro.audit.report.AuditLog`
— raising :class:`~repro.audit.report.AuditViolationError` in strict
mode, accumulating otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..power.dvs import OperatingPoint
from ..power.shutdown import SleepModel
from ..sched.schedule import Schedule
from ..sched.validate import (
    ScheduleInvariantError,
    check_deadlines,
    validate_schedule,
)
from .report import AuditLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.energy import EnergyBreakdown

__all__ = [
    "reference_energy",
    "audit_intermediate_schedule",
    "audit_energy",
    "audit_sweep",
    "audit_result",
]

#: Relative tolerance for comparing the reported breakdown against the
#: independently recomputed integral (float summation-order drift).
_ENERGY_REL_TOL = 1e-9


def reference_energy(schedule: Schedule, point: OperatingPoint,
                     deadline_seconds: float, *,
                     sleep: Optional[SleepModel] = None) -> "EnergyBreakdown":
    """Independently recompute the energy of ``schedule`` at ``point``.

    Walks every processor's placement list directly — deliberately *not*
    reusing :meth:`Schedule.gap_lengths`/:meth:`Schedule.busy_cycles`,
    so it cross-checks the accounting in
    :func:`repro.core.energy.schedule_energy` rather than repeating it.
    """
    # Imported lazily: strict mode makes repro.core call into this
    # module, so a module-level import back into repro.core would cycle.
    from ..core.energy import EnergyBreakdown

    f = point.frequency
    horizon = deadline_seconds * f  # cycles at the operating point
    busy = idle = sleep_e = overhead = 0.0
    n_shutdowns = 0
    for proc in range(schedule.n_processors):
        placements = schedule.processor_tasks(proc)
        if not placements:
            continue  # never employed -> fully off
        t = 0.0
        gap_cycles = []
        for pl in sorted(placements, key=lambda p: p.start):
            if pl.start > t:
                gap_cycles.append(pl.start - t)
            busy += (pl.finish - pl.start) * point.energy_per_cycle
            t = max(t, pl.finish)
        if horizon > t + 1e-9 * max(1.0, abs(t)):
            gap_cycles.append(horizon - t)
        for g in gap_cycles:
            seconds = g / f
            if sleep is not None and sleep.would_shut_down(
                    seconds, point.idle_power):
                sleep_e += seconds * sleep.sleep_power
                overhead += sleep.overhead_energy
                n_shutdowns += 1
            else:
                idle += seconds * point.idle_power
    return EnergyBreakdown(busy=busy, idle=idle, sleep=sleep_e,
                           overhead=overhead, n_shutdowns=n_shutdowns)


def audit_intermediate_schedule(schedule: Schedule, log: AuditLog,
                                context: str) -> None:
    """Structural validation of one schedule the pipeline built."""
    try:
        validate_schedule(schedule)
    except ScheduleInvariantError as exc:
        log.fail("structure", context, str(exc))
        return
    log.passed()


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= _ENERGY_REL_TOL * max(1.0, scale)


def _exact_diffs(energy: "EnergyBreakdown",
                 scalar: "EnergyBreakdown") -> List[str]:
    return [
        f"{name} {got!r} != {want!r}"
        for name, got, want in (
            ("busy", energy.busy, scalar.busy),
            ("idle", energy.idle, scalar.idle),
            ("sleep", energy.sleep, scalar.sleep),
            ("overhead", energy.overhead, scalar.overhead),
            ("n_shutdowns", energy.n_shutdowns, scalar.n_shutdowns),
        )
        if got != want
    ]


def audit_sweep(schedule: Schedule, points: Sequence[OperatingPoint],
                energies: Sequence["EnergyBreakdown"],
                deadline_seconds: float, sleep: Optional[SleepModel],
                log: AuditLog, context: str) -> None:
    """Every row of a batched ladder sweep equals the scalar reference.

    ``energies[i]`` is the broadcast result for ``points[i]``; each row
    is recomputed with :func:`repro.core.energy.schedule_energy` and
    must match it exactly.  One passed check per matching row.
    """
    from ..core.energy import schedule_energy

    for point, energy in zip(points, energies):
        scalar = schedule_energy(schedule, point, deadline_seconds,
                                 sleep=sleep)
        diffs = _exact_diffs(energy, scalar)
        if diffs:
            log.fail("energy", f"{context}@{point.frequency / 1e9:.4g} GHz",
                     "batched sweep row is not bitwise-equal to the "
                     "scalar schedule_energy reference: "
                     + "; ".join(diffs))
        else:
            log.passed()


def audit_energy(schedule: Schedule, energy: "EnergyBreakdown",
                 point: OperatingPoint, deadline_seconds: float,
                 sleep: Optional[SleepModel], log: AuditLog,
                 context: str) -> None:
    """Energy-conservation checks of one reported breakdown."""
    from ..core.energy import schedule_energy

    # 1. Non-negative components.
    bad = [name for name in ("busy", "idle", "sleep", "overhead")
           if getattr(energy, name) < 0.0]
    if bad:
        log.fail("energy", context,
                 f"negative breakdown component(s) {bad}: {energy}")
    else:
        log.passed()

    # 2. busy + idle + sleep + overhead == independent integral.
    ref = reference_energy(schedule, point, deadline_seconds, sleep=sleep)
    scale = max(abs(energy.total), abs(ref.total))
    mismatches = [
        f"{name} {got:.12g} != {want:.12g}"
        for name, got, want in (
            ("busy", energy.busy, ref.busy),
            ("idle", energy.idle, ref.idle),
            ("sleep", energy.sleep, ref.sleep),
            ("overhead", energy.overhead, ref.overhead),
            ("total", energy.total, ref.total),
        )
        if not _close(got, want, scale)
    ]
    if mismatches:
        log.fail("energy", context,
                 "breakdown disagrees with the independent integral: "
                 + "; ".join(mismatches))
    else:
        log.passed()

    # 3. The reported breakdown matches the scalar reference evaluator
    #    *exactly*.  The search loops produce their breakdowns with the
    #    vectorized schedule_energy_sweep, which is bitwise-identical to
    #    schedule_energy by construction — this is the check that keeps
    #    it honest.
    scalar = schedule_energy(schedule, point, deadline_seconds, sleep=sleep)
    exact_diffs = _exact_diffs(energy, scalar)
    if exact_diffs:
        log.fail("energy", context,
                 "breakdown is not bitwise-equal to the scalar "
                 "schedule_energy reference: " + "; ".join(exact_diffs))
    else:
        log.passed()

    # 4. Shutdown never costs more than staying on (same schedule/point).
    if sleep is not None:
        no_ps = schedule_energy(schedule, point, deadline_seconds)
        if energy.total > no_ps.total * (1.0 + _ENERGY_REL_TOL):
            log.fail("dominance", context,
                     f"PS energy {energy.total:.12g} J exceeds no-PS "
                     f"energy {no_ps.total:.12g} J at "
                     f"{point.frequency / 1e9:.4g} GHz")
        else:
            log.passed()


def audit_result(result, deadlines, platform, log: AuditLog, *,
                 sleep: Optional[SleepModel] = None) -> None:
    """Full audit of a finally chosen :class:`ScheduleResult`.

    ``deadlines`` is the per-task deadline vector (reference cycles) the
    heuristic scheduled against; ``sleep`` must be the sleep model used
    to compute ``result.energy`` (``None`` for the non-PS heuristics).
    Results without a concrete schedule (cache restores, LIMIT bounds)
    are skipped — there is nothing to re-check.
    """
    schedule = result.schedule
    if schedule is None or result.point is None:
        return
    context = f"{result.graph_name or 'graph'}/{result.heuristic.value}"
    audit_intermediate_schedule(schedule, log, context)

    # Deadlines at the *chosen* operating point, not merely at f_max.
    ratio = result.point.frequency / platform.fmax
    late = check_deadlines(schedule, deadlines, frequency_ratio=ratio)
    if late is not None and result.meets_deadline:
        log.fail("deadline", context, late)
    else:
        log.passed()

    audit_energy(schedule, result.energy, result.point,
                 result.deadline_seconds, sleep, log, context)
