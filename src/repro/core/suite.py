"""Fast evaluation of the full paper lineup on a chunk of instances.

:func:`paper_suite_batch` produces the same results as calling
:func:`repro.core.api.schedule` six times per instance, but shares the
expensive intermediates: S&S and S&S+PS use one schedule, LAMPS and
LAMPS+PS share the whole per-processor-count schedule cache, and the
chunk's instances of one graph — the paper's campaigns run each graph
at several deadlines — share one :class:`~repro.core.plans.PlanCache`,
so each of its list schedules is built once per chunk.  The
experiment harness and the service call it in their inner loop
(thousands of instances), so the sharing matters — profiling shows list
scheduling dominates the runtime, exactly as the paper's complexity
analysis (``T_LAMPS ~ #schedules * T_ls``) predicts.

The suite is organised as a *plan/finish* split: ``_plan_suite`` runs
all control flow — schedule construction, feasibility checks, LAMPS
phase 1 and the phase-2 processor-count walk, each the one rule in
:mod:`repro.core.lamps` that :func:`~repro.core.lamps.lamps_search`
also runs — and emits the ordered list of ladder sweeps the searches
need, without evaluating any energy (control flow is
energy-independent; see DESIGN.md, "Why the native sweep is exact").
One :func:`~repro.core.batch.batch_energy_sweep` call — one native
sweep over every (schedule, point) lane — evaluates every planned sweep
of the chunk, and ``_finish_suite`` turns
the results back into the six
:class:`~repro.core.results.ScheduleResult` entries with the shared
selection, :func:`~repro.core.lamps._best_candidate`.  This is the only
suite body: strict and profiled runs take it too, and
:func:`paper_suite` is a one-instance chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..audit.invariants import audit_result, audit_sweep
from ..audit.report import AuditLog
from ..graphs.dag import TaskGraph
from ..obs import NullObs, ObsLog, live
from ..power.shutdown import SleepModel
from ..sched.list_scheduler import list_schedule
from ..sched.priorities import PriorityPolicy
from ..sched.schedule import Schedule
from .energy import EnergyBreakdown
from .lamps import _best_candidate, _candidate_points, _min_count, \
    _walk_counts
from .limits import limit_mf, limit_sf
from .plans import PlanCache, PlannedSweep, sweep_energies
from .platform import Platform, default_platform
from .results import Heuristic, ScheduleResult

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
    ``lamps`` and ``lamps_ps`` hold the phase-2 sweep indices in
    ascending processor-count order.
    """

    graph: TaskGraph
    deadline_cycles: float
    deadline_seconds: float
    deadlines: object  # per-task deadline array (np.ndarray)
    platform: Platform
    log: Optional[AuditLog]
    plans: PlanCache
    sweeps: List[PlannedSweep] = field(default_factory=list)
    sns: int = -1
    sns_ps: int = -1
    lamps: List[int] = field(default_factory=list)
    lamps_ps: List[int] = field(default_factory=list)


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
    plans: PlanCache,
) -> _SuitePlan:
    """Run the suite's control flow; emit the sweeps it needs.

    Builds every schedule, runs the feasibility checks, LAMPS phase 1
    (:func:`~repro.core.lamps._min_count`) and the phase-2 walk
    (:func:`~repro.core.lamps._walk_counts`, which plans the plain and
    the +PS ladder of each count), and raises the
    :class:`~repro.core.results.InfeasibleScheduleError` that
    :func:`~repro.core.sns.schedule_and_stretch` raises for the same
    instance — none of which needs an energy value.
    Energy evaluation is deferred to the returned plan's ``sweeps``.

    All schedule builds, deadline vectors and required-frequency
    ratios go through ``plans``, the chunk's
    :class:`~repro.core.plans.PlanCache`, so the S&S family and LAMPS
    share every overlapping configuration (the full-spread build *is*
    the phase-1 upper bound, and width aliasing collapses every probe
    at or above the graph's width onto it), and the chunk's other
    instances of the same graph reuse these schedules at their own
    deadlines.
    """
    platform = platform or default_platform()
    log = audit if audit is not None else (AuditLog() if strict else None)
    d = plans.deadline_vector(graph, deadline_cycles)
    plan = _SuitePlan(
        graph=graph, deadline_cycles=deadline_cycles,
        deadline_seconds=platform.seconds(deadline_cycles), deadlines=d,
        platform=platform, log=log, plans=plans)

    def sched(n: int) -> Schedule:
        return plans.schedule(graph, n, d, policy=policy, obs=obs,
                              log=log, build=list_schedule)

    def ratio(s: Schedule) -> float:
        return plans.ratio(s, d)

    def add(s: Schedule, f_req: float, sleep: Optional[SleepModel]) -> int:
        plan.sweeps.append(PlannedSweep(s, _candidate_points(
            s, f_req, platform, plan.deadline_seconds, sleep, log, o),
            sleep))
        return len(plan.sweeps) - 1

    # ---- S&S family: one schedule on |V| processors ----------------------
    with o.span("suite.sns_family", category="suite", graph=graph.name):
        s_full = sched(graph.n)
        f_full = ratio(s_full) * platform.fmax
        plan.sns = add(s_full, f_full, None)
        plan.sns_ps = add(s_full, f_full, platform.sleep)

    # ---- LAMPS family: one walk plans both ladders per count -------------
    with o.span("suite.lamps_phase1", category="suite",
                graph=graph.name):
        n_min = _min_count(graph, deadline_cycles, sched, ratio, o, log)

    with o.span("suite.lamps_phase2", category="suite",
                graph=graph.name, n_min=n_min):
        for _, s, f_req in _walk_counts(sched, ratio, n_min, graph.n,
                                        platform.fmax, o, log):
            if f_req is not None:
                plan.lamps.append(add(s, f_req, None))
                plan.lamps_ps.append(add(s, f_req, platform.sleep))
    return plan


def _finish_suite(
    plan: _SuitePlan,
    energies: Sequence[Sequence[EnergyBreakdown]],
    o: Union[ObsLog, NullObs],
) -> Dict[Heuristic, ScheduleResult]:
    """Turn a plan's sweep energies into the six suite results.

    ``energies[i]`` must be the breakdown list of ``plan.sweeps[i]``,
    as :func:`~repro.core.plans.sweep_energies` returns it.  Selection
    is :func:`~repro.core.lamps._best_candidate`, the rule
    :func:`~repro.core.lamps.lamps_search` uses; for LAMPS+PS the
    S&S+PS sweep is the fully spread candidate.
    """
    graph = plan.graph
    platform = plan.platform
    log = plan.log
    picks = {
        Heuristic.SNS: _best_candidate(energies, plan.sweeps, [plan.sns]),
        Heuristic.SNS_PS: _best_candidate(energies, plan.sweeps,
                                          [plan.sns_ps]),
        Heuristic.LAMPS: _best_candidate(energies, plan.sweeps, plan.lamps),
        Heuristic.LAMPS_PS: _best_candidate(energies, plan.sweeps,
                                            plan.lamps_ps,
                                            spread=plan.sns_ps),
    }
    out: Dict[Heuristic, ScheduleResult] = {}
    for h, (energy, point, i) in picks.items():
        s = plan.sweeps[i].schedule
        out[h] = ScheduleResult(
            heuristic=h, graph_name=graph.name, energy=energy,
            point=point, n_processors=s.employed_processors,
            deadline_cycles=float(plan.deadline_cycles),
            deadline_seconds=plan.deadline_seconds, schedule=s)

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
                energies: Sequence[Sequence[EnergyBreakdown]]) -> None:
    """Strict row check of one instance's slice of the sweep."""
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
    """The paper suite on a chunk of instances, one batched sweep.

    Plans every instance sequentially (so any
    :class:`~repro.core.results.InfeasibleScheduleError` surfaces for
    the same instance, in the same order, as a serial loop) through one
    :class:`~repro.core.plans.PlanCache` for the whole chunk, so the
    chunk's instances of one graph build its list schedules once for
    all their deadlines (the cache keys schedules by key order; see
    :mod:`repro.core.plans`), evaluates
    every planned ladder of the chunk in a single
    :func:`~repro.core.batch.batch_energy_sweep` call (via
    :func:`~repro.core.plans.sweep_energies`), and finishes each
    instance from its slice of the results.  Bitwise-identical to
    evaluating the instances one at a time — the differential suites in
    ``tests/core/test_batch_sweep.py`` and ``tests/exec/`` hold this to
    byte equality.  An exception escaping an instance's plan or finish
    step carries that instance's chunk-local ``instance_index``.

    ``strict``/``audit`` run the :mod:`repro.audit` invariant checks on
    every intermediate schedule, every shared serve of the plan cache
    (width aliases, and schedules built at another deadline of the
    same graph) and every schedule-bearing result, and
    cross-check every sweep row against the scalar
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
    cache = PlanCache()
    with o.span("suite.batch", category="suite", instances=len(instances)):
        plans: List[_SuitePlan] = []
        for i, (graph, deadline) in enumerate(instances):
            try:
                with o.span("suite.plan", category="suite",
                            graph=graph.name, tasks=graph.n):
                    plans.append(_plan_suite(
                        graph, deadline, platform=platform, policy=policy,
                        strict=strict, audit=audit, obs=obs, o=o,
                        plans=cache))
            except BaseException as exc:
                _annotate_instance_failure(exc, i, instances[i])
                raise
        if not plans:
            return out

        with o.span("suite.sweep", category="suite", instances=len(plans)):
            try:
                energies: Optional[List[Sequence[EnergyBreakdown]]] = \
                    sweep_energies(
                        [ps for p in plans for ps in p.sweeps],
                        [p.deadline_seconds for p in plans
                         for _ in p.sweeps])
            except ValueError:
                # Exceptions must surface with per-instance attribution,
                # so re-run one sweep per instance below; the first
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
                        per_plan = sweep_energies(plan.sweeps,
                                                  plan.deadline_seconds)
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
