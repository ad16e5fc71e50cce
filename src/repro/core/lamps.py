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

Every LAMPS/S&S planning rule lives here once: phase 1
(:func:`_min_count`), the processor-count walk with its plateau and
anomaly rules (:func:`_walk_counts`), the ladder points a fixed
schedule is evaluated at (:func:`_candidate_points`) and the
cross-count selection (:func:`_best_candidate`).
:func:`lamps_search`, :func:`energy_vs_processors`,
:func:`repro.core.sns.schedule_and_stretch` and the batched suite
(:mod:`repro.core.suite`) are compositions of these.
"""

from __future__ import annotations

import math
from typing import (Callable, Hashable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..audit.invariants import audit_energy, audit_result
from ..audit.report import AuditLog
from ..graphs.dag import TaskGraph
from ..obs import NullObs, ObsLog, live
from ..power.dvs import OperatingPoint
from ..power.shutdown import SleepModel
from ..sched.list_scheduler import list_schedule
from ..sched.priorities import PriorityPolicy
from ..sched.schedule import Schedule
from .batch import PlannedSweep, SweepRows
from .energy import EnergyBreakdown
from .plans import PlanCache, sweep_energies
from .platform import Platform, default_platform
from .results import Heuristic, InfeasibleScheduleError, ScheduleResult
from .stretch import feasible_points, stretch_point

__all__ = ["lamps", "lamps_ps", "lamps_search", "energy_vs_processors"]

#: ``n -> schedule on n processors`` (a :class:`PlanCache` lookup).
Builder = Callable[[int], Schedule]
#: ``schedule -> required reference-frequency ratio`` (memoized).
Ratio = Callable[[Schedule], float]
_Obs = Union[ObsLog, NullObs]


def _count_anomaly(o: _Obs, log: Optional[AuditLog]) -> None:
    o.count("lamps.anomaly_retries")
    if log is not None:
        log.anomaly_retries += 1


def _min_count(graph: TaskGraph, deadline_cycles: float, sched: Builder,
               ratio: Ratio, o: _Obs, log: Optional[AuditLog]) -> int:
    """Phase 1: the least processor count feasible at full speed.

    Binary-searches ``[ceil(work / D), |V|]``.  The search assumes
    feasibility is monotone in the processor count; scheduling
    anomalies (more processors -> longer makespan) can break that, so
    the result is verified and advanced linearly until feasible —
    phase 2 must never start from an infeasible count.  Callers make
    sure ``|V|`` itself is feasible, so the advance terminates.
    """
    def feasible(n: int) -> bool:
        return ratio(sched(n)) <= 1.0 + 1e-9

    lo = max(1, math.ceil(float(graph.weights_array.sum()) / deadline_cycles))
    hi = graph.n
    while lo < hi:
        mid = (lo + hi) // 2
        o.count("lamps.binary_search_iterations")
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    while lo < graph.n and not feasible(lo):
        lo += 1
        _count_anomaly(o, log)
    return lo


def _walk_counts(sched: Builder, ratio: Ratio, first: int, last: int,
                 fmax: float, o: _Obs, log: Optional[AuditLog], *,
                 plateau: bool = True
                 ) -> Iterator[Tuple[int, Schedule, Optional[float]]]:
    """Phase 2's processor-count walk, ``first..last`` inclusive.

    Yields ``(n, schedule, f_req)`` per count, with ``f_req = None``
    for a count a scheduling anomaly made infeasible (counted as an
    anomaly retry; the walk keeps going — a later count can recover).
    With ``plateau`` on, the walk stops after the first *feasible*
    count whose makespan does not improve on the previous count's.
    Every makespan is tracked, infeasible counts included: comparing a
    later feasible count against a makespan from before an anomalous
    stretch would end the walk one count early.

    The walk reads only makespans and required frequencies, never
    energy, so a caller can plan every candidate's ladder sweep first
    and evaluate them all in one batched sweep.
    """
    prev_makespan = math.inf
    for n in range(first, last + 1):
        s = sched(n)
        f_req = ratio(s) * fmax
        if f_req > fmax * (1.0 + 1e-9):
            _count_anomaly(o, log)
            yield n, s, None
        else:
            yield n, s, f_req
            if plateau and s.makespan >= prev_makespan - 1e-9:
                return  # more processors no longer shorten the schedule
        prev_makespan = s.makespan


def _candidate_points(
        schedule: Schedule, f_req: float,
        platform: Platform, deadline_seconds: float,
        sleep: Optional[SleepModel],
        log: Optional[AuditLog] = None,
        o: Optional[_Obs] = None,
) -> Tuple[OperatingPoint, ...]:
    """The ladder points a search evaluates for a fixed schedule.

    Without PS: the single maximally stretched point (the paper
    stretches to finish "as close as possible to the deadline").  With
    PS: the whole feasible range (Fig. 8's inner loop).  Feasibility
    checks, obs counters and audit counters all happen here — energy
    does not enter the control flow.

    Raises:
        InfeasibleScheduleError: no ladder point meets ``f_req`` (e.g.
            float round-off pushed it marginally above ``fmax``).
    """
    o = o if o is not None else live(None)
    if sleep is None:
        try:
            points: Tuple[OperatingPoint, ...] = (
                stretch_point(platform.ladder, f_req),)
        except ValueError as exc:
            raise InfeasibleScheduleError(
                f"{schedule.graph.name or 'graph'}: needs "
                f"{f_req / 1e9:.6g} GHz, ladder tops out at "
                f"{platform.fmax / 1e9:.6g} GHz "
                f"(deadline window {deadline_seconds:.6g} s)") from exc
    else:
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
    return points


def _best_point(breakdowns: Sequence[EnergyBreakdown]) -> Tuple[int, float]:
    """Index and total of the least-energy breakdown; ties keep the first.

    The tie-break is load-bearing for byte identity: ``min`` keeps the
    earliest minimal total and ``index`` finds that same position, so
    every path picks the same point as the historical per-point loop.
    Rows of the native sweep (:class:`~repro.core.batch.SweepRows`)
    supply their totals without building a breakdown.
    """
    totals = (breakdowns.totals if isinstance(breakdowns, SweepRows)
              else [e.total for e in breakdowns])
    best = min(totals)
    return totals.index(best), best


def _best_candidate(
        energies: Sequence[Sequence[EnergyBreakdown]],
        sweeps: Sequence[PlannedSweep], order: Sequence[int], *,
        spread: Optional[int] = None, greedy: bool = False,
) -> Tuple[EnergyBreakdown, OperatingPoint, int]:
    """The cross-count selection: ``(energy, point, sweep index)``.

    ``order`` lists the walk's sweep indices in ascending processor
    count, ``energies[i]`` being the evaluated ladder of ``sweeps[i]``.
    Each candidate contributes its best ladder point; the earlier count
    wins ties.  ``greedy`` (the phase-2 ablation) stops at the first
    energy increase.  ``spread`` is the fully spread +PS candidate
    (Fig. 8's ``N_max``, the S&S+PS schedule): long gaps sleep cheaply,
    so it can beat every packed count, but it only displaces a strictly
    worse winner — also after a greedy stop.  The selection compares
    totals; only the winner's breakdown is read.
    """
    best: Optional[Tuple[float, int, int]] = None  # (total, sweep, point)
    for i in order:
        j, total = _best_point(energies[i])
        if best is None or total < best[0]:
            best = (total, i, j)
        elif greedy and total > best[0]:
            break
    if spread is not None:
        j, total = _best_point(energies[spread])
        if best is None or total < best[0]:
            best = (total, spread, j)
    assert best is not None  # the walk always yields a feasible count
    _, i, j = best
    return energies[i][j], sweeps[i].points[j], i


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
            minima) or ``"greedy"`` early stopping at the first energy
            increase (the ablation showing why linear is needed).
        strict: validate every intermediate schedule, every width-alias
            serve and the energy invariants of the final result (no-op
            on the returned values; violations raise
            :class:`~repro.audit.report.AuditViolationError`).
        audit: an :class:`~repro.audit.report.AuditLog` to record
            counters and violations into (implies the strict checks;
            its own ``strict`` flag decides raise-vs-collect).
        obs: an :class:`~repro.obs.ObsLog` recording phase spans,
            binary-search iterations, anomaly retries and operating
            points evaluated (no effect on the result).
        plans: a shared per-instance :class:`~repro.core.plans.PlanCache`
            (e.g. from :func:`~repro.core.api.evaluate_all`), also
            under strict/audit; a fresh one when omitted.

    Phase 2 plans first and evaluates once: the
    :func:`_walk_counts` walk collects every candidate's ladder sweep
    (the plateau stop reads only makespans), one
    :func:`~repro.core.plans.sweep_energies` call evaluates them
    all, and :func:`_best_candidate` selects over the results.

    Raises:
        InfeasibleScheduleError: the deadline cannot be met at full
            speed on any processor count up to ``|V|``.
    """
    if phase2 not in ("linear", "greedy"):
        raise ValueError(f"phase2 must be 'linear' or 'greedy', got {phase2!r}")
    platform = platform or default_platform()
    log = audit if audit is not None else (AuditLog() if strict else None)
    plans = plans if plans is not None else PlanCache()
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

    def ratio(s: Schedule) -> float:
        return plans.ratio(s, d)

    with o.span("lamps.phase1", category="core",
                graph=graph.name, shutdown=shutdown):
        if ratio(sched(graph.n)) > 1.0 + 1e-9:
            raise InfeasibleScheduleError(
                f"{graph.name or 'graph'}: deadline {deadline_cycles:g} cycles "
                f"unreachable even with {graph.n} processors at full speed")
        n_min = _min_count(graph, deadline_cycles, sched, ratio, o, log)

    with o.span("lamps.phase2", category="core",
                graph=graph.name, n_min=n_min, shutdown=shutdown):
        sweeps: List[PlannedSweep] = []

        def plan(s: Schedule, f_req: float) -> int:
            sweeps.append(PlannedSweep(s, _candidate_points(
                s, f_req, platform, deadline_seconds, sleep, log, o),
                deadline_seconds, sleep))
            return len(sweeps) - 1

        order = [plan(s, f_req) for _, s, f_req in _walk_counts(
            sched, ratio, n_min, graph.n, platform.fmax, o, log)
            if f_req is not None]
        spread: Optional[int] = None
        if shutdown:
            # The fully spread schedule, under the walk's anomaly rule
            # (a one-count walk): usually feasible — phase 1's upfront
            # check ran on this very schedule.
            _, s, f_req = next(_walk_counts(sched, ratio, graph.n, graph.n,
                                            platform.fmax, o, log))
            if f_req is not None:
                spread = plan(s, f_req)
        energies = sweep_energies(sweeps)
        energy, point, i = _best_candidate(
            energies, sweeps, order, spread=spread,
            greedy=phase2 == "greedy")
        schedule = sweeps[i].schedule

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

    This is :func:`lamps_search`'s phase-2 walk started at one
    processor, with the plateau stop off when ``max_processors`` is
    given.  Every count's ladder is evaluated in one batched sweep,
    and the strict-mode per-count energy audits run in ascending order.

    Raises:
        ValueError: ``max_processors`` is below one.
    """
    if max_processors is not None and max_processors < 1:
        raise ValueError("need at least one processor")
    platform = platform or default_platform()
    log = audit if audit is not None else (AuditLog() if strict else None)
    plans = plans if plans is not None else PlanCache()
    d = plans.deadline_vector(graph, deadline_cycles)
    deadline_seconds = platform.seconds(deadline_cycles)
    sleep = platform.sleep if shutdown else None
    o = live(obs)

    def sched(n: int) -> Schedule:
        return plans.schedule(graph, n, d, policy=policy, obs=obs, log=log,
                              build=list_schedule)

    rows: "list[tuple[int, Optional[int]]]" = []
    sweeps: List[PlannedSweep] = []
    for n, s, f_req in _walk_counts(
            sched, lambda s: plans.ratio(s, d), 1,
            max_processors or graph.n, platform.fmax, o, log,
            plateau=max_processors is None):
        if f_req is None:
            rows.append((n, None))
            continue
        rows.append((n, len(sweeps)))
        sweeps.append(PlannedSweep(s, _candidate_points(
            s, f_req, platform, deadline_seconds, sleep, log, o),
            deadline_seconds, sleep))

    energies = sweep_energies(sweeps)
    out: list[tuple[int, Optional[EnergyBreakdown]]] = []
    for n, i in rows:
        if i is None:
            out.append((n, None))
            continue
        j, _ = _best_point(energies[i])
        energy, point = energies[i][j], sweeps[i].points[j]
        out.append((n, energy))
        if log is not None:
            audit_energy(sweeps[i].schedule, energy, point,
                         deadline_seconds, sleep, log,
                         f"{graph.name or 'graph'}[n={n}]")
    return out
