"""Fast evaluation of the full paper lineup on a chunk of instances.

:func:`paper_suite_batch` produces the same results as calling
:func:`repro.core.api.schedule` six times per instance, but shares the
expensive intermediates: S&S and S&S+PS use one schedule, and LAMPS and
LAMPS+PS share the whole per-processor-count schedule cache.  The
experiment harness and the service call it in their inner loop
(thousands of instances), so the sharing matters — profiling shows list
scheduling dominates the runtime, exactly as the paper's complexity
analysis (``T_LAMPS ~ #schedules * T_ls``) predicts.

The suite is organised as a *plan/finish* split: ``_plan_suite`` runs
all control flow — schedule construction, feasibility checks, LAMPS
phase 1 and the phase-2 processor-count walk — and emits the ordered
list of ladder sweeps the searches need, without evaluating any energy
(control flow is energy-independent; see DESIGN.md, "Why batched padded
sweeps are exact").  One :func:`~repro.core.batch.batch_energy_sweep`
broadcast evaluates every planned sweep of the chunk, and
``_finish_suite`` turns the results back into the six
:class:`~repro.core.results.ScheduleResult` entries with the historical
tie-breaking.  This is the only suite body: strict and profiled runs
take it too, and :func:`paper_suite` is a one-instance chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..audit.invariants import audit_result, audit_sweep
from ..audit.report import AuditLog
from ..graphs.dag import TaskGraph
from ..obs import NullObs, ObsLog, live
from ..power.dvs import OperatingPoint
from ..power.shutdown import SleepModel
from ..sched.list_scheduler import list_schedule
from ..sched.priorities import PriorityPolicy
from ..sched.schedule import Schedule
from .energy import EnergyBreakdown, schedule_energy_sweep
from .lamps import _candidate_points, _select_best
from .limits import limit_mf, limit_sf
from .plans import PlanCache, PlannedSweep, plan_scope, sweep_energies
from .platform import Platform, default_platform
from .results import Heuristic, InfeasibleScheduleError, ScheduleResult
from .stretch import stretch_point

__all__ = ["paper_suite", "paper_suite_batch"]


def paper_suite(
    graph: TaskGraph,
    deadline_cycles: float,
    *,
    platform: Optional[Platform] = None,
    policy: Union[str, PriorityPolicy] = "edf",
    strict: bool = False,
    audit: Optional[AuditLog] = None,
    obs: Optional[ObsLog] = None,
) -> Dict[Heuristic, ScheduleResult]:
    """All six approaches on one (graph, deadline) instance.

    Returns a dict in the paper's presentation order: S&S, LAMPS,
    S&S+PS, LAMPS+PS, LIMIT-SF, LIMIT-MF.  A one-instance
    :func:`paper_suite_batch`; the knobs mean the same there.
    """
    return paper_suite_batch([(graph, deadline_cycles)], platform=platform,
                             policy=policy, strict=strict, audit=audit,
                             obs=obs)[0]


@dataclass
class _SuitePlan:
    """Everything ``_finish_suite`` needs besides the sweep energies.

    ``sweeps`` is ordered exactly as the historical serial suite
    evaluated them (SNS, SNS+PS, then plain/PS pairs per feasible
    phase-2 processor count), so evaluating them in order — serially or
    batched — reproduces the historical floating-point story verbatim.
    ``phase2`` holds ``(plain index, ps index, schedule)`` triples in
    ascending processor-count order.
    """

    graph: TaskGraph
    deadline_cycles: float
    deadline_seconds: float
    deadlines: object  # per-task deadline array (np.ndarray)
    platform: Platform
    log: Optional[AuditLog]
    s_full: Schedule
    plans: PlanCache
    sweeps: List[PlannedSweep] = field(default_factory=list)
    sns: int = -1
    sns_ps: int = -1
    phase2: List[Tuple[int, int, Schedule]] = field(default_factory=list)


def _plan_suite(
    graph: TaskGraph,
    deadline_cycles: float,
    *,
    platform: Optional[Platform],
    policy: Union[str, PriorityPolicy],
    strict: bool,
    audit: Optional[AuditLog],
    obs: Optional[ObsLog],
    o: Union[ObsLog, NullObs],
) -> _SuitePlan:
    """Run the suite's control flow; emit the sweeps it needs.

    Builds every schedule, runs the feasibility checks, LAMPS phase 1
    and the phase-2 walk, and raises the exact
    :class:`~repro.core.results.InfeasibleScheduleError` the historical
    suite raised, in the same order — none of which needs an energy
    value.  Energy evaluation is deferred to the returned plan's
    ``sweeps``.

    All schedule builds, deadline vectors and required-frequency
    ratios go through one per-instance
    :class:`~repro.core.plans.PlanCache`, so the S&S family and LAMPS
    share every overlapping configuration (the full-spread build *is*
    the phase-1 upper-bound probe, and width aliasing collapses every
    probe at or above the graph's width onto it).
    """
    platform = platform or default_platform()
    log = audit if audit is not None else (AuditLog() if strict else None)
    plans = plan_scope(None, log)
    d = plans.deadline_vector(graph, deadline_cycles)
    deadline_seconds = platform.seconds(deadline_cycles)

    def sched(n: int) -> Schedule:
        return plans.schedule(graph, n, d, policy=policy, obs=obs,
                              log=log, build=list_schedule)

    # ---- S&S family: one schedule on |V| processors ----------------------
    with o.span("suite.sns_family", category="suite", graph=graph.name):
        s_full = sched(graph.n)
        plan = _SuitePlan(
            graph=graph, deadline_cycles=deadline_cycles,
            deadline_seconds=deadline_seconds, deadlines=d,
            platform=platform, log=log, s_full=s_full, plans=plans)

        def add(s: Schedule, points: Sequence[OperatingPoint],
                sleep: Optional[SleepModel]) -> int:
            plan.sweeps.append(PlannedSweep(s, tuple(points), sleep))
            return len(plan.sweeps) - 1

        f_req = plans.ratio(s_full, d) * platform.fmax
        if f_req > platform.fmax * (1.0 + 1e-9):
            raise InfeasibleScheduleError(
                f"{graph.name or 'graph'}: infeasible even at full speed")
        point = stretch_point(platform.ladder, f_req)
        o.count("core.operating_points_evaluated")
        if log is not None:
            log.operating_points_evaluated += 1
        plan.sns = add(s_full, [point], None)
        plan.sns_ps = add(
            s_full,
            _candidate_points(s_full, f_req, platform, deadline_seconds,
                              platform.sleep, log, o),
            platform.sleep)

    # ---- LAMPS family: shared processor-count sweep ----------------------
    with o.span("suite.lamps_phase1", category="suite",
                graph=graph.name):
        n_lwb = max(1,
                    math.ceil(float(graph.weights_array.sum()) / deadline_cycles))
        lo, hi = n_lwb, graph.n
        while lo < hi:
            mid = (lo + hi) // 2
            o.count("lamps.binary_search_iterations")
            if plans.ratio(sched(mid), d) <= 1.0 + 1e-9:
                hi = mid
            else:
                lo = mid + 1
        n_min = lo
        # Feasibility can be non-monotone under scheduling anomalies,
        # which breaks the binary search's assumption; advance linearly
        # until feasible (graph.n is feasible, so this terminates) —
        # see repro.core.lamps.lamps_search for the same guard.
        while (n_min < graph.n
               and plans.ratio(sched(n_min), d) > 1.0 + 1e-9):
            n_min += 1
            o.count("lamps.anomaly_retries")
            if log is not None:
                log.anomaly_retries += 1

    with o.span("suite.lamps_phase2", category="suite",
                graph=graph.name, n_min=n_min):
        prev_makespan = math.inf
        for n in range(n_min, graph.n + 1):
            s = sched(n)
            fr = plans.ratio(s, d) * platform.fmax
            if fr <= platform.fmax * (1.0 + 1e-9):
                plain_i = add(
                    s, _candidate_points(s, fr, platform, deadline_seconds,
                                         None, log, o), None)
                ps_i = add(
                    s, _candidate_points(s, fr, platform, deadline_seconds,
                                         platform.sleep, log, o),
                    platform.sleep)
                plan.phase2.append((plain_i, ps_i, s))
                if s.makespan >= prev_makespan - 1e-9:
                    break  # plateau on a feasible count ends the sweep
            else:
                o.count("lamps.anomaly_retries")
                if log is not None:
                    log.anomaly_retries += 1
            # Same anomaly rule as lamps_search: track every makespan,
            # and never let an infeasible (anomalous) count end the
            # sweep.
            prev_makespan = s.makespan
    return plan


def _finish_suite(
    plan: _SuitePlan,
    energies: Sequence[List[EnergyBreakdown]],
    o: Union[ObsLog, NullObs],
) -> Dict[Heuristic, ScheduleResult]:
    """Turn a plan's sweep energies into the six suite results.

    ``energies[i]`` must be the breakdown list of ``plan.sweeps[i]`` —
    from :func:`~repro.core.energy.schedule_energy_sweep` or the
    batched equivalent, which agree bitwise.  Selection replays the
    historical tie-breaking exactly: ``min`` keeps the first minimal
    ladder point, cross-count comparison keeps the earlier processor
    count on ties, and the fully spread +PS candidate only displaces a
    strictly worse phase-2 winner.
    """
    graph = plan.graph
    platform = plan.platform
    log = plan.log

    def result(heuristic: Heuristic, energy: EnergyBreakdown,
               point: OperatingPoint, s: Schedule) -> ScheduleResult:
        return ScheduleResult(
            heuristic=heuristic, graph_name=graph.name, energy=energy,
            point=point, n_processors=s.employed_processors,
            deadline_cycles=float(plan.deadline_cycles),
            deadline_seconds=plan.deadline_seconds, schedule=s)

    def best(i: int) -> Tuple[EnergyBreakdown, OperatingPoint]:
        return _select_best(list(energies[i]), list(plan.sweeps[i].points))

    out: Dict[Heuristic, ScheduleResult] = {}
    e_sns, p_sns = best(plan.sns)
    out[Heuristic.SNS] = result(Heuristic.SNS, e_sns, p_sns, plan.s_full)
    e_ps, p_ps = best(plan.sns_ps)
    out[Heuristic.SNS_PS] = result(Heuristic.SNS_PS, e_ps, p_ps,
                                   plan.s_full)

    best_plain: Optional[tuple] = None
    best_ps: Optional[tuple] = None
    for plain_i, ps_i, s in plan.phase2:
        e, p = best(plain_i)
        if best_plain is None or e.total < best_plain[0].total:
            best_plain = (e, p, s)
        e, p = best(ps_i)
        if best_ps is None or e.total < best_ps[0].total:
            best_ps = (e, p, s)
    # The fully spread schedule is a valid +PS candidate (Fig. 8's
    # Nmax); it can beat packed configurations because long gaps sleep
    # cheaply.
    if best_ps is None or e_ps.total < best_ps[0].total:
        best_ps = (e_ps, p_ps, plan.s_full)
    assert best_plain is not None and best_ps is not None
    out[Heuristic.LAMPS] = result(Heuristic.LAMPS, *best_plain)
    out[Heuristic.LAMPS_PS] = result(Heuristic.LAMPS_PS, *best_ps)

    # ---- Bounds -----------------------------------------------------------
    with o.span("suite.limits", category="suite", graph=graph.name):
        out[Heuristic.LIMIT_SF] = limit_sf(
            graph, plan.deadline_cycles, platform=platform,
            plans=plan.plans)
        out[Heuristic.LIMIT_MF] = limit_mf(
            graph, plan.deadline_cycles, platform=platform,
            plans=plan.plans)
    if log is not None:
        for h, res in out.items():
            audit_result(
                res, plan.deadlines, platform, log,
                sleep=platform.sleep
                if h in (Heuristic.SNS_PS, Heuristic.LAMPS_PS) else None)
    # Re-key into presentation order.
    order = (Heuristic.SNS, Heuristic.LAMPS, Heuristic.SNS_PS,
             Heuristic.LAMPS_PS, Heuristic.LIMIT_SF, Heuristic.LIMIT_MF)
    return {h: out[h] for h in order}


def _annotate_instance_failure(exc: BaseException, index: int,
                               instance: Tuple[TaskGraph, float]) -> None:
    """Tag ``exc`` with the chunk-local failing instance, once.

    The pool layer's :func:`repro.exec.pool._identify_failure` respects
    an existing ``instance_index``, so annotating here — before the
    exception crosses the chunk boundary — preserves per-instance
    attribution even though the pool only sees whole chunks.  Callers
    that know the chunk's global offset rebase the index in flight.
    """
    if getattr(exc, "instance_index", None) is not None:
        return
    try:
        item_repr = repr(instance)
    except Exception:  # a broken repr must not mask the real error
        item_repr = f"<unreprable {type(instance).__name__}>"
    if len(item_repr) > 500:
        item_repr = item_repr[:497] + "..."
    try:
        exc.instance_index = index  # type: ignore[attr-defined]
        exc.instance_repr = item_repr  # type: ignore[attr-defined]
    except Exception:  # exceptions with __slots__ cannot carry attrs
        pass


def _audit_rows(plan: _SuitePlan,
                energies: Sequence[List[EnergyBreakdown]]) -> None:
    """Strict row check of one instance's slice of the broadcast."""
    assert plan.log is not None
    for ps, row in zip(plan.sweeps, energies):
        audit_sweep(ps.schedule, ps.points, row, plan.deadline_seconds,
                    ps.sleep, plan.log,
                    f"{plan.graph.name or 'graph'}"
                    f"[n={ps.schedule.n_processors}]")


def paper_suite_batch(
    instances: Sequence[Tuple[TaskGraph, float]],
    *,
    platform: Optional[Platform] = None,
    policy: Union[str, PriorityPolicy] = "edf",
    strict: bool = False,
    audit: Optional[AuditLog] = None,
    obs: Optional[ObsLog] = None,
) -> List[Dict[Heuristic, ScheduleResult]]:
    """The paper suite on a chunk of instances, one broadcast sweep.

    Plans every instance sequentially (so any
    :class:`~repro.core.results.InfeasibleScheduleError` surfaces for
    the same instance, in the same order, as a serial loop), evaluates
    every planned ladder of the chunk in a single
    :func:`~repro.core.batch.batch_energy_sweep` call (via
    :func:`~repro.core.plans.sweep_energies`), and finishes each
    instance from its slice of the results.  Bitwise-identical to
    evaluating the instances one at a time — the differential suites in
    ``tests/core/test_batch_sweep.py`` and ``tests/exec/`` hold this to
    byte equality.  An exception escaping an instance's plan or finish
    step carries that instance's chunk-local ``instance_index``.

    ``strict``/``audit`` run the :mod:`repro.audit` invariant checks on
    every intermediate schedule and every schedule-bearing result, and
    cross-check every broadcast row against the scalar
    :func:`~repro.core.energy.schedule_energy` bitwise (``strict``
    alone uses a fresh :class:`~repro.audit.report.AuditLog` per
    instance).  ``obs`` records a ``suite.batch`` span around
    per-instance ``suite.plan`` spans, one ``suite.sweep`` and
    per-instance ``suite.finish`` spans.  Neither changes the results.

    Returns:
        One heuristic→result dict per instance, in input order.
    """
    o = live(obs)
    out: List[Dict[Heuristic, ScheduleResult]] = []
    with o.span("suite.batch", category="suite", instances=len(instances)):
        plans: List[_SuitePlan] = []
        for i, (graph, deadline) in enumerate(instances):
            try:
                with o.span("suite.plan", category="suite",
                            graph=graph.name, tasks=graph.n):
                    plans.append(_plan_suite(
                        graph, deadline, platform=platform, policy=policy,
                        strict=strict, audit=audit, obs=obs, o=o))
            except BaseException as exc:
                _annotate_instance_failure(exc, i, instances[i])
                raise
        if not plans:
            return out

        with o.span("suite.sweep", category="suite", instances=len(plans)):
            try:
                energies: Optional[List[List[EnergyBreakdown]]] = \
                    sweep_energies(
                        [ps for p in plans for ps in p.sweeps],
                        [p.deadline_seconds for p in plans
                         for _ in p.sweeps])
            except ValueError:
                # Exceptions must surface with per-instance attribution,
                # so re-run the sweeps per instance below; the first
                # offender re-raises the identical error from its own
                # instance's evaluation.
                energies = None

        cursor = 0
        for i, plan in enumerate(plans):
            k = len(plan.sweeps)
            try:
                with o.span("suite.finish", category="suite",
                            graph=plan.graph.name):
                    if energies is None:
                        per_plan = [
                            schedule_energy_sweep(
                                ps.schedule, list(ps.points),
                                plan.deadline_seconds, sleep=ps.sleep)
                            for ps in plan.sweeps]
                    else:
                        per_plan = energies[cursor:cursor + k]
                        if plan.log is not None:
                            _audit_rows(plan, per_plan)
                    out.append(_finish_suite(plan, per_plan, o))
            except BaseException as exc:
                _annotate_instance_failure(exc, i, instances[i])
                raise
            cursor += k
    return out
