"""Kernel-discipline rules (KER0xx).

The array-native :class:`~repro.sched.schedule.Schedule` kernel (PR 4)
derives per-processor busy totals, last-finish times and idle-gap
arrays *once*, at construction, and the one-shot DVS-ladder sweep is
bitwise-exact only against those frozen arrays.  Three disciplines keep
that true:

* **KER001** — schedules are built only through the blessed
  constructors (``Schedule(...)`` over placements, or
  ``Schedule.from_arrays``; ``ScheduleBatch.from_schedules`` for the
  batched stack in :mod:`repro.core.batch`); reaching for ``__new__``
  or the private ``_init_arrays``/``_materialize`` kernels bypasses
  validation and the precomputation contract;
* **KER002** — the kernel arrays (``starts``/``finishes``/``procs``
  and everything derived, on :class:`Schedule` and
  :class:`ScheduleBatch` alike) are frozen; writing to them, or
  un-freezing via ``setflags``, desynchronizes the precomputed
  aggregates;
* **KER003** — the scalar :func:`~repro.core.energy.schedule_energy`
  exists as the audit cross-check; search and evaluation paths must go
  through the batched ``sweep_energies`` / ``batch_energy_sweep``
  (bitwise-identical by construction), so a scalar call outside
  :mod:`repro.audit` is either dead weight on a hot path or a drift
  hazard.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from .base import Rule, dotted_name, register

__all__ = ["BlessedConstruction", "KernelArrayMutation",
           "ScalarEnergyCall"]

#: Modules that own the kernel internals (prefix match on the dotted
#: module name): the Schedule kernel, the batched multi-schedule stack
#: built on top of it, and the plan cache that memoizes built
#: schedules for reuse across heuristics (PR 9).
_KERNEL_OWNERS: Tuple[str, ...] = ("repro.sched.schedule",
                                   "repro.core.batch",
                                   "repro.core.plans")

#: Modules allowed to call the scalar energy evaluator: its home and
#: the audit cross-check layer.
_SCALAR_ENERGY_OK: Tuple[str, ...] = ("repro.core.energy", "repro.audit")

#: Attributes of the frozen kernel surface (public views and private
#: slots alike).
_PROTECTED_ATTRS = frozenset({
    "start_times", "finish_times", "task_processors",
    "proc_busy_cycles", "proc_last_finish",
    "_starts", "_finish", "_procs", "_order", "_bounds",
    "_proc_busy", "_proc_last", "_gap_lo", "_gap_hi", "_gap_len",
    "_gap_bounds",
    # ScheduleBatch's CSR arrays (repro.core.batch), and the names of
    # its earlier padded layout, which stay reserved.
    "member_offsets", "employed_ids", "proc_busy", "proc_last",
    "gap_offsets", "gap_flat", "makespans",
    "starts", "finishes", "procs", "task_mask", "employed_counts",
    "gap_counts", "gap_starts",
})

_PRIVATE_KERNEL_METHODS = frozenset({"_init_arrays", "_materialize"})


def _module_allowed(module: Optional[str],
                    prefixes: Tuple[str, ...]) -> bool:
    if module is None:
        return False
    return any(module == p or module.startswith(p + ".")
               for p in prefixes)


@register
class BlessedConstruction(Rule):
    """Schedule construction goes through the blessed constructors."""

    code = "KER001"
    name = "blessed-construction"
    scope = "global"
    description = ("Schedule built around the blessed constructors "
                   "(placement constructor / Schedule.from_arrays): "
                   "__new__ or private kernel methods used outside "
                   "repro.sched.schedule")

    def _in_owner(self) -> bool:
        return _module_allowed(self.ctx.module, _KERNEL_OWNERS)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._in_owner():
            name = dotted_name(node.func)
            if name is not None:
                if name.endswith("Schedule.__new__") or \
                        name.endswith("ScheduleBatch.__new__"):
                    self.report(node,
                                "__new__ bypasses the blessed kernel "
                                "constructors; use Schedule(...) / "
                                "Schedule.from_arrays(...) / "
                                "ScheduleBatch.from_schedules(...)")
                elif name in ("object.__new__",) and node.args:
                    arg = dotted_name(node.args[0])
                    if arg is not None and \
                            (arg.endswith("Schedule")
                             or arg.endswith("ScheduleBatch")):
                        self.report(node,
                                    "object.__new__ on a kernel class "
                                    "bypasses the blessed "
                                    "constructors")
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _PRIVATE_KERNEL_METHODS:
                self.report(node,
                            f"private kernel method "
                            f"'{node.func.attr}' called outside "
                            f"repro.sched.schedule")
        self.generic_visit(node)


@register
class KernelArrayMutation(Rule):
    """The kernel arrays of a built Schedule are frozen."""

    code = "KER002"
    name = "kernel-array-mutation"
    scope = "global"
    description = ("write to a Schedule kernel array "
                   "(starts/finishes/procs and derived aggregates) or "
                   "setflags() outside repro.sched.schedule")

    def _in_owner(self) -> bool:
        return _module_allowed(self.ctx.module, _KERNEL_OWNERS)

    def _check_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Starred):
            target = target.value
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt)
            return
        if isinstance(target, ast.Subscript):
            target = target.value
            if isinstance(target, ast.Attribute) and \
                    target.attr in _PROTECTED_ATTRS:
                self.report(target,
                            f"writing into kernel array "
                            f"'.{target.attr}[...]' desynchronizes "
                            f"the precomputed schedule aggregates; "
                            f"build a new Schedule instead")
        elif isinstance(target, ast.Attribute) and \
                target.attr in _PROTECTED_ATTRS:
            self.report(target,
                        f"assigning '.{target.attr}' replaces a "
                        f"frozen kernel array; build a new Schedule "
                        f"through the blessed constructors")

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._in_owner():
            for target in node.targets:
                self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not self._in_owner():
            self._check_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        if not self._in_owner():
            for target in node.targets:
                self._check_target(target)
        self.generic_visit(node)

    @staticmethod
    def _touches_protected(expr: ast.AST) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Attribute) and \
                    sub.attr in _PROTECTED_ATTRS:
                return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        # Freezing one's own arrays (write=False) is fine anywhere;
        # what the kernel contract forbids is thawing (write=True) or
        # touching the flags of a Schedule's protected arrays at all.
        if not self._in_owner() and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "setflags":
            thaws = any(
                kw.arg == "write" and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is False)
                for kw in node.keywords)
            if thaws or self._touches_protected(node.func.value):
                self.report(node,
                            "setflags() un-freezes an array (or "
                            "touches a kernel array's flags); the "
                            "kernel arrays stay frozen outside "
                            "repro.sched.schedule")
        self.generic_visit(node)


@register
class ScalarEnergyCall(Rule):
    """Scalar schedule_energy is the audit cross-check only."""

    code = "KER003"
    name = "scalar-energy-call"
    scope = "global"
    description = ("scalar schedule_energy() call outside the audit "
                   "cross-check; hot paths use the bitwise-identical "
                   "sweep_energies / batch_energy_sweep")

    def visit_Call(self, node: ast.Call) -> None:
        if not _module_allowed(self.ctx.module, _SCALAR_ENERGY_OK):
            name = dotted_name(node.func)
            if name is not None and (
                    name == "schedule_energy"
                    or name.endswith(".schedule_energy")):
                self.report(node,
                            "scalar schedule_energy() outside "
                            "repro.audit; evaluate through "
                            "sweep_energies / batch_energy_sweep "
                            "(bitwise-identical and batched over "
                            "schedules and ladders)")
        self.generic_visit(node)
