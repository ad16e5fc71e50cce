"""Structured audit reporting: counters, violations and the strict flag.

An :class:`AuditLog` is the mutable object every strict-mode heuristic
writes into: per-phase counters (schedules built, cache hits, anomaly
retries, operating points evaluated, invariant checks passed) plus the
list of :class:`AuditViolation` records.  In ``strict`` mode the first
violation raises :class:`AuditViolationError` immediately (fail fast —
this is the mode the ``--strict`` experiment flag uses); in collecting
mode (the ``repro audit`` CLI sweep) violations accumulate and are
rendered as a table afterwards.

The log is deliberately JSON-friendly: :meth:`AuditLog.counters` /
:meth:`AuditLog.merge` let worker processes ship their counters back to
the coordinating process as plain dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["AuditViolation", "AuditViolationError", "AuditLog"]

#: Names of the integer counters an :class:`AuditLog` carries, in
#: presentation order (also the merge/serialisation schema).
COUNTER_FIELDS = (
    "schedules_built",
    "cache_hits",
    "anomaly_retries",
    "operating_points_evaluated",
    "invariant_checks_passed",
)


class AuditViolationError(AssertionError):
    """A strict-mode invariant check failed."""


@dataclass(frozen=True)
class AuditViolation:
    """One failed invariant check.

    Attributes:
        kind: the invariant family — ``"structure"``, ``"aliasing"``,
            ``"ratio"``, ``"deadline"``, ``"energy"`` or
            ``"dominance"``.
        context: where it happened, e.g. ``"robot[n=4]"`` or
            ``"robot/LAMPS+PS"``.
        message: the specific violated condition.
    """

    kind: str
    context: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.context}: {self.message}"


@dataclass
class AuditLog:
    """Counters and violations of one audited run.

    Attributes:
        strict: raise :class:`AuditViolationError` on the first
            violation instead of collecting it.
        schedules_built: list-scheduler invocations that were audited.
        cache_hits: instances served from the exec result cache (their
            schedules are not rebuilt, hence not re-validated).
        anomaly_retries: processor counts skipped or re-tried because a
            scheduling anomaly made them infeasible.
        operating_points_evaluated: (schedule, operating point) energy
            evaluations performed.
        invariant_checks_passed: individual invariant checks that held.
        violations: the failed checks (empty in strict mode unless the
            raised error was caught by the caller).
    """

    strict: bool = True
    schedules_built: int = 0
    cache_hits: int = 0
    anomaly_retries: int = 0
    operating_points_evaluated: int = 0
    invariant_checks_passed: int = 0
    violations: List[AuditViolation] = field(default_factory=list)

    # ------------------------------------------------------------------
    def passed(self, n: int = 1) -> None:
        """Record ``n`` invariant checks that held."""
        self.invariant_checks_passed += n

    def fail(self, kind: str, context: str, message: str) -> None:
        """Record a violation; raise immediately when strict."""
        violation = AuditViolation(kind=kind, context=context,
                                   message=message)
        self.violations.append(violation)
        if self.strict:
            raise AuditViolationError(str(violation))

    @property
    def clean(self) -> bool:
        """Whether no violation has been recorded."""
        return not self.violations

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """The integer counters as a plain (picklable/JSON-able) dict."""
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def merge(self, counts: Dict[str, int],
              violations: Optional[List[dict]] = None) -> None:
        """Fold counters (and optional violation dicts) from a worker in."""
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + int(counts.get(name, 0)))
        for v in violations or []:
            self.fail(v["kind"], v["context"], v["message"])

    def summary_line(self) -> str:
        """One-line counter summary (the ``--strict`` stderr line)."""
        c = self.counters()
        checks = c["invariant_checks_passed"]
        return (f"[audit] {c['schedules_built']} schedules built, "
                f"{c['cache_hits']} cache hits, "
                f"{c['anomaly_retries']} anomaly retries, "
                f"{c['operating_points_evaluated']} operating points, "
                f"{checks} invariant checks passed, "
                f"{len(self.violations)} violations")
