"""Schedule & Stretch (S&S) and S&S+PS.

S&S (Section 4.1) is the DVS-only baseline: list-schedule with EDF on as
many processors as can reduce the makespan, then use all slack before
the deadline to scale the common frequency down as far as feasibility
allows.  It ignores leakage: the extra processors it employs keep
leaking while idle.

S&S+PS (Section 4.3) keeps the same schedule but jointly optimises the
frequency and shutdown decisions: it sweeps the frequency from maximum
down to the minimum feasible level and, at each level, shuts processors
down during every idle gap long enough to amortise the wake-up cost,
keeping the setting with the least total energy.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional, Union

from ..audit.invariants import audit_result
from ..audit.report import AuditLog
from ..graphs.dag import TaskGraph
from ..obs import ObsLog, live
from ..sched.list_scheduler import list_schedule
from ..sched.priorities import PriorityPolicy
from .lamps import _best_candidate, _candidate_points
from .plans import PlanCache, PlannedSweep, sweep_energies
from .platform import Platform, default_platform
from .results import Heuristic, ScheduleResult

__all__ = ["schedule_and_stretch", "sns", "sns_ps"]


def schedule_and_stretch(
    graph: TaskGraph,
    deadline_cycles: float,
    *,
    platform: Optional[Platform] = None,
    shutdown: bool = False,
    policy: Union[str, PriorityPolicy] = "edf",
    deadline_overrides: Optional[Mapping[Hashable, float]] = None,
    max_processors: Optional[int] = None,
    strict: bool = False,
    audit: Optional[AuditLog] = None,
    obs: Optional[ObsLog] = None,
    plans: Optional[PlanCache] = None,
) -> ScheduleResult:
    """Run S&S (``shutdown=False``) or S&S+PS (``shutdown=True``).

    Args:
        graph: task graph, weights in cycles at the reference frequency.
        deadline_cycles: graph deadline in the same reference cycles.
        platform: DVS ladder + sleep model; defaults to the paper's.
        shutdown: enable the PS extension.
        policy: list-scheduling priority (the paper uses EDF).
        deadline_overrides: tighter per-task deadlines (KPN outputs).
        max_processors: cap on available processors; defaults to ``|V|``
            (the paper's upper bound — more can never help).
        strict: validate the schedule and the energy invariants of the
            result (no-op on the returned values; violations raise
            :class:`~repro.audit.report.AuditViolationError`).
        audit: an :class:`~repro.audit.report.AuditLog` to record
            counters and violations into (implies the strict checks).
        obs: an :class:`~repro.obs.ObsLog` recording the stretch span,
            the schedule build and the operating points evaluated (no
            effect on the result).
        plans: a shared per-instance
            :class:`~repro.core.plans.PlanCache`; reuses the deadline
            vector and schedule across heuristics on the same instance,
            also under strict/audit.

    The schedule is evaluated like one LAMPS candidate: the ladder
    points come from :func:`repro.core.lamps._candidate_points` and the
    energies from one :func:`~repro.core.plans.sweep_energies` call.

    Raises:
        InfeasibleScheduleError: deadline unreachable even at full speed.
    """
    platform = platform or default_platform()
    n_procs = graph.n if max_processors is None else min(max_processors, graph.n)
    if n_procs < 1:
        raise ValueError("need at least one processor")
    log = audit if audit is not None else (AuditLog() if strict else None)
    o = live(obs)

    plans = plans if plans is not None else PlanCache()
    d = plans.deadline_vector(graph, deadline_cycles,
                              overrides=deadline_overrides)
    sched = plans.schedule(graph, n_procs, d, policy=policy, obs=obs,
                           log=log, build=list_schedule)
    sleep = platform.sleep if shutdown else None
    with o.span("sns.stretch", category="core", graph=graph.name,
                shutdown=shutdown):
        f_req = plans.ratio(sched, d) * platform.fmax
        deadline_seconds = platform.seconds(deadline_cycles)
        sweep = PlannedSweep(sched, _candidate_points(
            sched, f_req, platform, deadline_seconds, sleep, log, o), sleep)
        energy, point, _ = _best_candidate(
            sweep_energies([sweep], deadline_seconds), [sweep], [0])

    result = ScheduleResult(
        heuristic=Heuristic.SNS_PS if shutdown else Heuristic.SNS,
        graph_name=graph.name,
        energy=energy,
        point=point,
        n_processors=sched.employed_processors,
        deadline_cycles=float(deadline_cycles),
        deadline_seconds=deadline_seconds,
        schedule=sched,
    )
    if log is not None:
        audit_result(result, d, platform, log, sleep=sleep)
    return result


def sns(graph: TaskGraph, deadline_cycles: float, **kwargs) -> ScheduleResult:
    """S&S — see :func:`schedule_and_stretch`."""
    return schedule_and_stretch(graph, deadline_cycles, shutdown=False, **kwargs)


def sns_ps(graph: TaskGraph, deadline_cycles: float, **kwargs) -> ScheduleResult:
    """S&S+PS — see :func:`schedule_and_stretch`."""
    return schedule_and_stretch(graph, deadline_cycles, shutdown=True, **kwargs)
