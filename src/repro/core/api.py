"""Public facade over the scheduling heuristics.

:func:`schedule` runs one heuristic; :func:`evaluate_all` runs the full
paper lineup on one instance (the building block of every experiment).
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Union

from ..audit.report import AuditLog
from ..graphs.analysis import critical_path_length
from ..graphs.dag import TaskGraph
from ..obs import ObsLog
from .lamps import lamps_search
from .limits import limit_mf, limit_sf
from .plans import PlanCache
from .platform import Platform
from .results import Heuristic, ScheduleResult
from .sns import schedule_and_stretch

__all__ = ["schedule", "evaluate_all", "deadline_from_factor"]


def deadline_from_factor(graph: TaskGraph, factor: float) -> float:
    """Deadline in reference cycles for a deadline-extension ``factor``.

    The paper expresses deadlines as multiples of the critical path
    length at full speed (1.5x, 2x, 4x, 8x).
    """
    if factor < 1.0:
        raise ValueError(f"deadline factor must be >= 1, got {factor}")
    return factor * critical_path_length(graph)


def schedule(
    graph: TaskGraph,
    deadline_cycles: Optional[float] = None,
    *,
    deadline_factor: Optional[float] = None,
    heuristic: Union[Heuristic, str] = Heuristic.LAMPS_PS,
    platform: Optional[Platform] = None,
    policy: str = "edf",
    deadline_overrides: Optional[Mapping[Hashable, float]] = None,
    strict: bool = False,
    audit: Optional[AuditLog] = None,
    obs: Optional[ObsLog] = None,
    plans: Optional[PlanCache] = None,
) -> ScheduleResult:
    """Schedule ``graph`` for minimum energy under a deadline.

    Exactly one of ``deadline_cycles`` (reference cycles — the task weights'
    unit) or ``deadline_factor`` (multiple of the critical path length)
    must be given.

    Args:
        heuristic: one of the :class:`Heuristic` members or its string
            value (e.g. ``"LAMPS+PS"``).
        platform: DVS ladder + sleep model; defaults to the paper's
            70 nm platform.
        policy: list-scheduling priority (the paper's default is EDF).
        deadline_overrides: tighter per-task deadlines, e.g. from an
            unrolled KPN.
        strict: re-validate every intermediate schedule and the energy
            invariants of the result (see :mod:`repro.audit`); a no-op
            on the returned values.  Violations raise
            :class:`~repro.audit.report.AuditViolationError`.
        audit: an :class:`~repro.audit.report.AuditLog` to record
            counters/violations into (implies the strict checks; its
            own ``strict`` flag decides raise-vs-collect).  Ignored by
            the LIMIT bounds, which build no schedule.
        obs: an :class:`~repro.obs.ObsLog` recording spans/counters of
            the search (see :mod:`repro.obs`); never changes the
            result.  Ignored by the LIMIT bounds.
        plans: a shared per-instance
            :class:`~repro.core.plans.PlanCache` so multiple heuristic
            runs on the same instance build each schedule once.  Strict
            and audited runs use it too, verifying every width-alias
            serve against a fresh build.

    Returns:
        A :class:`ScheduleResult` with the chosen processor count,
        operating point, energy breakdown, and the schedule itself.

    Example:
        >>> from repro.graphs import mpeg1_gop_graph
        >>> g = mpeg1_gop_graph()
        >>> res = schedule(g, deadline_factor=2.0, heuristic="LAMPS+PS")
        >>> res.n_processors >= 1
        True
    """
    if (deadline_cycles is None) == (deadline_factor is None):
        raise ValueError(
            "give exactly one of 'deadline_cycles' or "
            "'deadline_factor'")
    if deadline_cycles is None:
        deadline_cycles = deadline_from_factor(graph, deadline_factor)
    h = Heuristic(heuristic)
    kwargs = dict(platform=platform, deadline_overrides=deadline_overrides)
    check = dict(strict=strict, audit=audit, obs=obs, plans=plans)

    if h is Heuristic.SNS:
        return schedule_and_stretch(graph, deadline_cycles, shutdown=False,
                                    policy=policy, **kwargs, **check)
    if h is Heuristic.SNS_PS:
        return schedule_and_stretch(graph, deadline_cycles, shutdown=True,
                                    policy=policy, **kwargs, **check)
    if h is Heuristic.LAMPS:
        return lamps_search(graph, deadline_cycles, shutdown=False,
                            policy=policy, **kwargs, **check)
    if h is Heuristic.LAMPS_PS:
        return lamps_search(graph, deadline_cycles, shutdown=True,
                            policy=policy, **kwargs, **check)
    if h is Heuristic.LIMIT_SF:
        return limit_sf(graph, deadline_cycles, plans=plans, **kwargs)
    if h is Heuristic.LIMIT_MF:
        return limit_mf(graph, deadline_cycles, plans=plans, **kwargs)
    raise AssertionError(f"unhandled heuristic {h!r}")  # pragma: no cover


def evaluate_all(
    graph: TaskGraph,
    deadline_cycles: Optional[float] = None,
    *,
    deadline_factor: Optional[float] = None,
    platform: Optional[Platform] = None,
    policy: str = "edf",
    heuristics: Optional[tuple] = None,
    deadline_overrides: Optional[Mapping[Hashable, float]] = None,
    strict: bool = False,
    audit: Optional[AuditLog] = None,
    obs: Optional[ObsLog] = None,
    plans: Optional[PlanCache] = None,
) -> Dict[Heuristic, ScheduleResult]:
    """Run every heuristic (or a chosen subset) on one instance.

    Returns a dict keyed by :class:`Heuristic`, in the paper's
    presentation order.  ``strict``/``audit`` behave as in
    :func:`schedule` and apply to every heuristic run.  The heuristics
    share one per-instance :class:`~repro.core.plans.PlanCache` (pass
    ``plans`` to share it wider), so overlapping schedule
    configurations — e.g. S&S's full-spread build and LAMPS's upper
    probes — are built once, also under strict/audit (which then
    verify every width-alias serve against a fresh build).
    """
    chosen = heuristics or tuple(Heuristic)
    shared = plans if plans is not None else PlanCache()
    return {
        Heuristic(h): schedule(
            graph, deadline_cycles, deadline_factor=deadline_factor,
            heuristic=h, platform=platform, policy=policy,
            deadline_overrides=deadline_overrides,
            strict=strict, audit=audit, obs=obs, plans=shared)
        for h in chosen
    }
