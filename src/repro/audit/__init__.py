"""Strict invariant-audit layer for the heuristic pipeline.

Every energy number in the reproduction flows through ``list_schedule →
required_frequency → schedule_energy``; a silently wrong schedule would
corrupt every downstream table — and, with the on-disk result cache,
get *persisted*.  This package is the always-available correctness
layer that guards against exactly that:

- :mod:`repro.audit.report` — :class:`AuditLog` (per-phase counters +
  violations, strict/collect modes) and the violation types.
- :mod:`repro.audit.invariants` — the checks themselves: structural
  schedule validation, bytewise verification of every width-alias
  serve of the plan cache, deadline satisfaction at the chosen operating
  point, energy-conservation invariants cross-checked against an
  independently recomputed per-processor integral, and the bitwise
  cross-check of every batched sweep row against the scalar evaluator.
- :mod:`repro.audit.corpus` — :func:`audit_corpus`, the bundled
  STG + MPEG sweep behind the ``repro audit`` CLI subcommand.

Enable it anywhere with ``strict=True`` (``repro.core.api.schedule``,
``paper_suite``, the S&S/LAMPS entry points, ``ExecOptions``,
``python -m repro.experiments --strict``); strict mode is a *no-op on
results* — byte-identical outputs, verified by ``tests/audit``.
"""

from .corpus import CorpusAudit, CorpusRow, audit_corpus
from .invariants import (
    audit_alias,
    audit_energy,
    audit_intermediate_schedule,
    audit_result,
    audit_sweep,
    reference_energy,
)
from .report import AuditLog, AuditViolation, AuditViolationError

__all__ = [
    "AuditLog",
    "AuditViolation",
    "AuditViolationError",
    "audit_intermediate_schedule",
    "audit_alias",
    "audit_energy",
    "audit_result",
    "audit_sweep",
    "reference_energy",
    "CorpusAudit",
    "CorpusRow",
    "audit_corpus",
]
