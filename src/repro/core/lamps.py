"""LAMPS and LAMPS+PS — the paper's core contribution (Sections 4.2, 4.3).

LAMPS trades voltage scaling against the number of employed processors:

Phase 1
    Binary-search the minimal processor count ``N_min`` that meets the
    deadline at full speed, between the work bound
    ``N_lwb = ceil(total work / D)`` and ``N_upb = |V|``.

Phase 2
    For ``N = N_min, N_min+1, ...`` — *linear* search, because energy vs
    processor count has local minima (Fig. 6) — list-schedule on ``N``
    processors, stretch the frequency to finish exactly on time, and
    record the energy; stop once adding a processor no longer shortens
    the makespan.  Return the configuration with the least energy.

LAMPS+PS evaluates, for every processor count, the whole feasible
frequency range with the shutdown gap rule (Fig. 8's pseudocode) instead
of only the maximally stretched point.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Mapping, Optional, Tuple, Union

from ..audit.invariants import audit_energy, audit_result
from ..audit.report import AuditLog
from ..graphs.dag import TaskGraph
from ..obs import NullObs, ObsLog, live
from ..power.dvs import OperatingPoint
from ..power.shutdown import SleepModel
from ..sched.list_scheduler import list_schedule
from ..sched.priorities import PriorityPolicy
from ..sched.schedule import Schedule
from .energy import EnergyBreakdown
from .plans import PlanCache, PlannedSweep, plan_scope, sweep_energies
from .platform import Platform, default_platform
from .results import Heuristic, InfeasibleScheduleError, ScheduleResult
from .stretch import feasible_points, stretch_point

__all__ = ["lamps", "lamps_ps", "lamps_search", "energy_vs_processors"]


def lamps_search(
    graph: TaskGraph,
    deadline_cycles: float,
    *,
    platform: Optional[Platform] = None,
    shutdown: bool = False,
    policy: Union[str, PriorityPolicy] = "edf",
    deadline_overrides: Optional[Mapping[Hashable, float]] = None,
    phase2: str = "linear",
    strict: bool = False,
    audit: Optional[AuditLog] = None,
    obs: Optional[ObsLog] = None,
    plans: Optional[PlanCache] = None,
) -> ScheduleResult:
    """Run LAMPS (``shutdown=False``) or LAMPS+PS (``shutdown=True``).

    Args:
        graph, deadline_cycles, platform, policy, deadline_overrides:
            as in
            :func:`repro.core.sns.schedule_and_stretch`.
        shutdown: enable the PS extension.
        phase2: ``"linear"`` (the paper's choice — robust to local
            minima) or ``"binary"``-style early stopping at the first
            energy increase (the ablation showing why linear is needed).
        strict: validate every intermediate schedule and the energy
            invariants of the final result (no-op on the returned
            values; violations raise
            :class:`~repro.audit.report.AuditViolationError`).
        audit: an :class:`~repro.audit.report.AuditLog` to record
            counters and violations into (implies the strict checks;
            its own ``strict`` flag decides raise-vs-collect).
        obs: an :class:`~repro.obs.ObsLog` recording phase spans,
            binary-search iterations, anomaly retries and operating
            points evaluated (no effect on the result).
        plans: a shared per-instance :class:`~repro.core.plans.PlanCache`
            (e.g. from :func:`~repro.core.api.evaluate_all`); ignored
            under strict/audit, which replay the historical per-call
            cache exactly (see :func:`~repro.core.plans.plan_scope`).

    Phase 2 is organised as a plan/finish split: the processor-count
    walk plans every candidate's ladder points (control flow is energy
    -independent — the plateau break reads only makespans), one
    :func:`~repro.core.plans.sweep_energies` broadcast evaluates every
    candidate's full ladder in a single batched kernel call, and the
    finish replays the historical selection (first-minimum ties, the
    greedy ablation's energy-increase break, the +PS full-spread
    displacement) over the precomputed energies — bitwise-identical to
    the historical interleaved loop.

    Raises:
        InfeasibleScheduleError: the deadline cannot be met at full
            speed on any processor count up to ``|V|``.
    """
    if phase2 not in ("linear", "greedy"):
        raise ValueError(f"phase2 must be 'linear' or 'greedy', got {phase2!r}")
    platform = platform or default_platform()
    log = audit if audit is not None else (AuditLog() if strict else None)
    plans = plan_scope(plans, log)
    d = plans.deadline_vector(graph, deadline_cycles,
                              overrides=deadline_overrides)
    deadline_seconds = platform.seconds(deadline_cycles)
    sleep = platform.sleep if shutdown else None
    o = live(obs)

    def sched(n: int) -> Schedule:
        # ``build=list_schedule`` resolves this module's global at call
        # time, so the anomaly tests' monkeypatched builders are used
        # (and automatically disable the cache's width aliasing).
        return plans.schedule(graph, n, d, policy=policy, obs=obs,
                              log=log, build=list_schedule)

    def feasible(n: int) -> bool:
        return plans.ratio(sched(n), d) <= 1.0 + 1e-9

    # ---- Phase 1: minimal processor count (binary search) ---------------
    with o.span("lamps.phase1", category="core",
                graph=graph.name, shutdown=shutdown):
        n_lwb = max(1, math.ceil(float(graph.weights_array.sum()) / deadline_cycles))
        n_upb = graph.n
        if not feasible(n_upb):
            raise InfeasibleScheduleError(
                f"{graph.name or 'graph'}: deadline {deadline_cycles:g} cycles "
                f"unreachable even with {n_upb} processors at full speed")
        lo, hi = n_lwb, n_upb
        while lo < hi:
            mid = (lo + hi) // 2
            o.count("lamps.binary_search_iterations")
            if feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        n_min = lo
        # The binary search assumes feasibility is monotone in the
        # processor count; scheduling anomalies (more processors ->
        # longer makespan) can break that, so verify and advance
        # linearly until feasible — Phase 2 must never start from an
        # infeasible count (n_upb is feasible, so this terminates).
        while n_min < n_upb and not feasible(n_min):
            n_min += 1
            o.count("lamps.anomaly_retries")
            if log is not None:
                log.anomaly_retries += 1

    # ---- Phase 2: sweep processor counts ---------------------------------
    with o.span("lamps.phase2", category="core",
                graph=graph.name, n_min=n_min, shutdown=shutdown):
        # Plan: walk the counts, collecting each feasible candidate's
        # ladder points.  The walk is energy-independent — the plateau
        # break reads only makespans — so every candidate's sweep can
        # be deferred to one batched broadcast below.
        cands: List[Tuple[int, Schedule]] = []
        sweeps: List[PlannedSweep] = []
        prev_makespan = math.inf
        for n in range(n_min, n_upb + 1):
            s = sched(n)
            f_req = plans.ratio(s, d) * platform.fmax
            if f_req > platform.fmax * (1.0 + 1e-9):
                # Scheduling anomaly made this count infeasible: skip it
                # but keep sweeping — a later count can recover.
                o.count("lamps.anomaly_retries")
                if log is not None:
                    log.anomaly_retries += 1
            else:
                points = _candidate_points(s, f_req, platform,
                                           deadline_seconds, sleep, log, o)
                cands.append((n, s))
                sweeps.append(PlannedSweep(s, tuple(points), sleep))
                if s.makespan >= prev_makespan - 1e-9:
                    break  # more processors no longer shorten the schedule
            # Track *every* makespan, not only the feasible ones —
            # comparing a later feasible count against a makespan from
            # before an anomalous stretch used to truncate the sweep
            # one point early.
            prev_makespan = s.makespan
        spread: Optional[int] = None
        if shutdown:
            # Fig. 8 sweeps up to the number of processors that can be
            # employed efficiently; the fully spread schedule (the S&S
            # one) can win under PS because longer per-processor gaps
            # sleep better, so include it as a candidate — unless an
            # anomaly made it infeasible (it usually is feasible: the
            # upfront check ran on this very schedule).
            s = sched(graph.n)
            f_req = plans.ratio(s, d) * platform.fmax
            if f_req <= platform.fmax * (1.0 + 1e-9):
                points = _candidate_points(s, f_req, platform,
                                           deadline_seconds, sleep, log, o)
                spread = len(sweeps)
                cands.append((graph.n, s))
                sweeps.append(PlannedSweep(s, tuple(points), sleep))
            else:
                o.count("lamps.anomaly_retries")
                if log is not None:
                    log.anomaly_retries += 1

        # One broadcast evaluates every candidate's full ladder; the
        # batch kernel is bitwise-identical to a per-point scalar
        # schedule_energy loop, including exception order.
        energies = sweep_energies(sweeps, deadline_seconds)

        # Finish: replay the historical selection over the precomputed
        # energies — first-minimum ties, the greedy ablation's break on
        # an energy increase, and the +PS full-spread candidate that
        # only displaces a strictly worse winner (even after a greedy
        # break, exactly as the historical post-loop evaluation did).
        best: Optional[tuple] = None  # (energy, n, point, schedule)
        for i, (n, s) in enumerate(cands):
            if i == spread:
                continue
            energy, point = _select_best(energies[i],
                                         list(sweeps[i].points))
            if best is None or energy.total < best[0].total:
                best = (energy, n, point, s)
            elif phase2 == "greedy" and energy.total > best[0].total:
                break
        if spread is not None:
            energy, point = _select_best(energies[spread],
                                         list(sweeps[spread].points))
            if best is None or energy.total < best[0].total:
                best = (energy, graph.n, point, cands[spread][1])
        assert best is not None  # n_min is always feasible
        energy, _, point, schedule = best

    result = ScheduleResult(
        heuristic=Heuristic.LAMPS_PS if shutdown else Heuristic.LAMPS,
        graph_name=graph.name,
        energy=energy,
        point=point,
        n_processors=schedule.employed_processors,
        deadline_cycles=float(deadline_cycles),
        deadline_seconds=deadline_seconds,
        schedule=schedule,
    )
    if log is not None:
        audit_result(result, d, platform, log, sleep=sleep)
    return result


def _candidate_points(
        schedule: Schedule, f_req: float,
        platform: Platform, deadline_seconds: float,
        sleep: Optional[SleepModel],
        log: Optional[AuditLog] = None,
        o: Optional[Union[ObsLog, NullObs]] = None,
) -> "list[OperatingPoint]":
    """The ladder points a search evaluates for a fixed schedule.

    Without PS: the single maximally stretched point (the paper
    stretches to finish "as close as possible to the deadline").  With
    PS: the whole feasible range (Fig. 8's inner loop).  Feasibility
    checks, obs counters and audit counters all happen here — energy
    does not enter the control flow, which is what lets the batched
    campaign path (:func:`repro.core.suite.paper_suite_batch`) plan
    every sweep up front and evaluate them together.

    Raises:
        InfeasibleScheduleError: no ladder point meets ``f_req`` (e.g.
            float round-off pushed it marginally above ``fmax``).
    """
    o = o if o is not None else live(None)
    if sleep is None:
        try:
            point = stretch_point(platform.ladder, f_req)
        except ValueError as exc:
            raise InfeasibleScheduleError(
                f"{schedule.graph.name or 'graph'}: needs "
                f"{f_req / 1e9:.6g} GHz, ladder tops out at "
                f"{platform.fmax / 1e9:.6g} GHz "
                f"(deadline window {deadline_seconds:.6g} s)") from exc
        o.count("core.operating_points_evaluated")
        if log is not None:
            log.operating_points_evaluated += 1
        return [point]
    points = feasible_points(platform.ladder, f_req)
    if not points:
        raise InfeasibleScheduleError(
            f"{schedule.graph.name or 'graph'}: no feasible operating "
            f"point — needs {f_req / 1e9:.6g} GHz, ladder tops out at "
            f"{platform.fmax / 1e9:.6g} GHz "
            f"(deadline window {deadline_seconds:.6g} s)")
    o.count("core.operating_points_evaluated", len(points))
    if log is not None:
        log.operating_points_evaluated += len(points)
    return list(points)


def _select_best(
        breakdowns: "list[EnergyBreakdown]",
        points: "list[OperatingPoint]",
) -> Tuple[EnergyBreakdown, OperatingPoint]:
    """The least-energy (energy, point) pair; ties keep the first.

    The tie-break is load-bearing for byte identity: ``min`` keeps the
    earliest minimal candidate, exactly like the historical per-point
    loop, so the serial and batched paths pick the same point.
    """
    return min(zip(breakdowns, points), key=lambda c: c[0].total)


def lamps(graph: TaskGraph, deadline_cycles: float, **kwargs) -> ScheduleResult:
    """LAMPS — see :func:`lamps_search`."""
    return lamps_search(graph, deadline_cycles, shutdown=False, **kwargs)


def lamps_ps(graph: TaskGraph, deadline_cycles: float, **kwargs) -> ScheduleResult:
    """LAMPS+PS — see :func:`lamps_search`."""
    return lamps_search(graph, deadline_cycles, shutdown=True, **kwargs)


def energy_vs_processors(
    graph: TaskGraph,
    deadline_cycles: float,
    *,
    platform: Optional[Platform] = None,
    shutdown: bool = False,
    policy: Union[str, PriorityPolicy] = "edf",
    max_processors: Optional[int] = None,
    strict: bool = False,
    audit: Optional[AuditLog] = None,
    obs: Optional[ObsLog] = None,
    plans: Optional[PlanCache] = None,
) -> "list[tuple[int, Optional[EnergyBreakdown]]]":
    """Energy as a function of the processor count (the data of Fig. 6).

    Returns one ``(n, energy_or_None)`` pair per processor count from 1
    to ``max_processors`` (default: the count where the makespan stops
    improving); ``None`` marks infeasible counts.

    Like :func:`lamps_search` phase 2, the sweep is a plan/finish
    split: every count's schedule and ladder points are planned first
    (the truncation rule reads only makespans), one batched broadcast
    evaluates all the ladders, and the rows — and the strict-mode
    per-count energy audits, in the same ascending order — are
    assembled from the precomputed results.
    """
    platform = platform or default_platform()
    log = audit if audit is not None else (AuditLog() if strict else None)
    plans = plan_scope(plans, log)
    d = plans.deadline_vector(graph, deadline_cycles)
    deadline_seconds = platform.seconds(deadline_cycles)
    sleep = platform.sleep if shutdown else None
    o = live(obs)
    planned: "list[tuple[int, Schedule, Optional[int]]]" = []
    sweeps: List[PlannedSweep] = []
    prev_makespan = math.inf
    n_cap = max_processors or graph.n
    for n in range(1, n_cap + 1):
        s = plans.schedule(graph, n, d, policy=policy, obs=obs, log=log,
                           build=list_schedule)
        f_req = plans.ratio(s, d) * platform.fmax
        if f_req > platform.fmax * (1.0 + 1e-9):
            planned.append((n, s, None))
            o.count("lamps.anomaly_retries")
            if log is not None:
                log.anomaly_retries += 1
        else:
            points = _candidate_points(s, f_req, platform,
                                       deadline_seconds, sleep, log, o)
            planned.append((n, s, len(sweeps)))
            sweeps.append(PlannedSweep(s, tuple(points), sleep))
            if max_processors is None and \
                    s.makespan >= prev_makespan - 1e-9:
                break  # a feasible count stopped improving the makespan
        # Track *every* makespan, not only the feasible ones — comparing
        # a later feasible count against a makespan from before an
        # infeasible stretch used to truncate the Fig. 6 sweep one
        # point early (and an anomalously *long* infeasible count must
        # not end the sweep either).
        prev_makespan = s.makespan

    energies = sweep_energies(sweeps, deadline_seconds)
    out: list[tuple[int, Optional[EnergyBreakdown]]] = []
    for n, s, sweep_i in planned:
        if sweep_i is None:
            out.append((n, None))
            continue
        energy, point = _select_best(energies[sweep_i],
                                     list(sweeps[sweep_i].points))
        out.append((n, energy))
        if log is not None:
            audit_energy(s, energy, point, deadline_seconds, sleep,
                         log, f"{graph.name or 'graph'}[n={n}]")
    return out
