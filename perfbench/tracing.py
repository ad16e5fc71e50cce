"""Wrappers around the public entry point of each layer.

The benchmark records spans from its own files: :func:`install` swaps
each target function for a wrapper that counts the call and, in
``"time"`` mode, records a span ``(id, name, start, end, parent)`` into
memory.  The program itself is not edited.

Every module attribute that *is* the original function gets the same
wrapper object.  That matters: ``PlanCache.schedule`` only allows width
aliasing when ``build is list_schedule``, and ``repro.core.suite``
passes its own ``list_schedule`` name as ``build``.  With one wrapper
on both names the identity test still holds, so the traced run executes
the same program as the untraced one (``check_aliasing`` asserts it).

Modes:

* ``"count"`` — call counts and the argument-derived counters only;
  no clock reads.  The reference for "the trace did not change the
  path".
* ``"time"`` — counts plus spans.  Self time of a span is its duration
  minus the durations of its direct children (spans nest per thread).

``ScheduleBatcher.submit`` is a coroutine; its spans measure the wait
from submit to outcome and take no part in nesting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute path, span name).  Two targets may share a span
#: name (the two limits, the two pool transports): they are one layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graphs.analysis", "top_levels", "graphs.top_levels"),
    ("repro.sched.deadlines", "task_deadlines", "sched.task_deadlines"),
    ("repro.sched.list_scheduler", "list_schedule", "sched.list_schedule"),
    ("repro.core.plans", "PlanCache.schedule", "core.plans.schedule"),
    ("repro.core.batch", "ScheduleBatch.from_schedules",
     "core.batch.from_schedules"),
    ("repro.core.batch", "batch_energy_sweep", "core.batch.sweep"),
    ("repro.core.energy", "schedule_energy_sweep", "core.energy.sweep"),
    ("repro.core.limits", "limit_sf", "core.limits"),
    ("repro.core.limits", "limit_mf", "core.limits"),
    ("repro.core.suite", "paper_suite_batch", "core.suite"),
    ("repro.exec.runner", "evaluate_suite_instances", "exec.runner"),
    ("repro.exec.pool", "run_instances", "exec.pool"),
    ("repro.exec.pool", "run_instances_shm", "exec.pool"),
    ("repro.exec.cache", "instance_digest", "exec.cache.digest"),
    ("repro.exec.cache", "ResultCache.get", "exec.cache.get"),
    ("repro.exec.cache", "ResultCache.put", "exec.cache.put"),
    ("repro.serve.protocol", "parse_request", "serve.protocol.parse"),
    ("repro.serve.protocol", "encode_ok", "serve.protocol.encode"),
    ("repro.serve.batcher", "ScheduleBatcher.submit",
     "serve.batcher.submit"),
)

#: Span names whose wall time is a wait (no self-time accounting).
WAIT_SPANS = ("serve.batcher.submit",)


def _observe(name: str, args: tuple, result: Any,
             bump: Callable[[str, float], None]) -> None:
    """Counters derived from a call's arguments or result."""
    if name == "sched.list_schedule":
        bump("sched.tasks_dispatched", args[0].n)
    elif name == "core.batch.sweep":
        bump("core.batch.ladder_points",
             sum(len(r.points) for r in args[1]))
    elif name == "core.batch.from_schedules":
        bump("core.batch.useful_cells", int(result.n_tasks.sum()))
        bump("core.batch.padded_cells", result.size * result.max_tasks)
    elif name == "exec.pool":
        bump("exec.pool.chunks", len(args[1]))


class Tracer:
    """Counts (and in ``"time"`` mode spans) of the wrapped calls."""

    def __init__(self, mode: str) -> None:
        if mode not in ("count", "time"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.counts: Dict[str, float] = defaultdict(float)
        #: (id, name, start, end, parent id or -1, thread id)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def bump(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _active(self) -> Dict[str, int]:
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = {}
        return active

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, fn: Callable, name: str) -> Callable:
        timed = self.mode == "time"
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args: Any, **kwargs: Any) -> Any:
                self.bump(name + ".calls")
                if not timed:
                    return await fn(*args, **kwargs)
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span = (self._new_id(), name, t0, time.perf_counter(),
                            -1, threading.get_ident())
                    self.spans.append(span)
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.bump(name + ".calls")
            # A layer re-entering itself (run_instances_shm delegating
            # to run_instances at jobs=1) is one unit of its work.
            active = self._active()
            outer = not active.get(name)
            active[name] = active.get(name, 0) + 1
            try:
                if not timed:
                    result = fn(*args, **kwargs)
                else:
                    stack = self._stack()
                    sid = self._new_id()
                    parent = stack[-1] if stack else -1
                    stack.append(sid)
                    t0 = time.perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        t1 = time.perf_counter()
                        stack.pop()
                        self.spans.append((sid, name, t0, t1, parent,
                                           threading.get_ident()))
            finally:
                active[name] -= 1
            if outer:
                _observe(name, args, result, self.bump)
            return result
        return wrapper

    # ------------------------------------------------------------------
    def install(self, only: Tuple[str, ...] = ()) -> "Tracer":
        """Wrap every target in place, or those whose span is in ``only``."""
        for module_name, path, name in TARGETS:
            if only and name not in only:
                continue
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name))
                else:
                    new = self.wrap(raw, name)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(module, path)
            wrapper = self.wrap(original, name)
            # Every alias of the function in the package: ``from x
            # import f`` copies the reference into the importer.
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write spans and counts as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"counts": self.counts, "spans": self.spans}, fh)


def check_aliasing() -> None:
    """Fail if the wrapped scheduler lost its identity on either name.

    ``repro.core.plans`` compares ``build is list_schedule``; a wrapper
    on only one of the two names would silently switch width aliasing
    off and the trace would time a different program.
    """
    plans = importlib.import_module("repro.core.plans")
    suite = importlib.import_module("repro.core.suite")
    if plans.list_schedule is not suite.list_schedule:
        raise AssertionError("list_schedule differs between "
                             "repro.core.plans and repro.core.suite")


def self_times(spans: List[Tuple[int, str, float, float, int, int]]
               ) -> Dict[str, Dict[str, float]]:
    """Per-name ``{"calls", "total_s", "self_s"}`` from raw spans.

    ``total_s`` is inclusive wall time, counting a span nested in a
    span of the same name only once.
    """
    child: Dict[int, float] = defaultdict(float)
    names: Dict[int, str] = {}
    for sid, name, t0, t1, parent, _tid in spans:
        names[sid] = name
        if parent >= 0:
            child[parent] += t1 - t0
    out: Dict[str, Dict[str, float]] = {}
    for sid, name, t0, t1, parent, _tid in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        row["calls"] += 1
        if names.get(parent) != name:  # re-entry is not extra wall time
            row["total_s"] += t1 - t0
        if name not in WAIT_SPANS:
            row["self_s"] += (t1 - t0) - child.get(sid, 0.0)
    return out


def format_table(rows: Dict[str, Dict[str, float]], units: float,
                 unit_name: str) -> str:
    """The per-layer self-time table, heaviest self time first.

    Every wrapped layer gets a row; one the workload never reached
    reads 0.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    rows = {**{name: empty for _, _, name in TARGETS}, **rows}
    total_self = sum(r["self_s"] for r in rows.values()) or 1.0
    lines = [f"{'layer':<28}{'calls/' + unit_name:>14}"
             f"{'self_ms/' + unit_name:>16}{'total_ms/' + unit_name:>17}"
             f"{'self%':>8}"]
    for name, r in sorted(rows.items(),
                          key=lambda kv: (-kv[1]["self_s"],
                                          -kv[1]["total_s"], kv[0])):
        lines.append(
            f"{name:<28}{r['calls'] / units:>14.1f}"
            f"{1e3 * r['self_s'] / units:>16.3f}"
            f"{1e3 * r['total_s'] / units:>17.3f}"
            f"{100 * r['self_s'] / total_self:>7.1f}%")
    return "\n".join(lines)


def layer_values(rows: Dict[str, Dict[str, float]],
                  counts: Dict[str, float], units: float
                  ) -> Dict[str, float]:
    """Per-unit layer metrics from self-time rows and call counts."""
    def self_s(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0) / units

    def calls(name: str) -> float:
        return counts.get(name + ".calls", 0.0) / units

    v = {
        "graphs.top_levels.self_s": self_s("graphs.top_levels"),
        "graphs.top_levels.calls": calls("graphs.top_levels"),
        "sched.task_deadlines.self_s": self_s("sched.task_deadlines"),
        "sched.list_schedule.self_s": self_s("sched.list_schedule"),
        "sched.list_schedule.calls": calls("sched.list_schedule"),
        "sched.tasks_dispatched":
            counts.get("sched.tasks_dispatched", 0.0) / units,
        "core.plans.self_s": self_s("core.plans.schedule"),
        "core.plans.schedule_calls": calls("core.plans.schedule"),
        "core.batch.from_schedules.self_s":
            self_s("core.batch.from_schedules"),
        "core.batch.sweep.self_s": self_s("core.batch.sweep"),
        "core.batch.ladder_points":
            counts.get("core.batch.ladder_points", 0.0) / units,
        "core.energy.sweep.calls": calls("core.energy.sweep"),
        "core.limits.self_s": self_s("core.limits"),
        "core.suite.self_s": self_s("core.suite"),
        "exec.runner.self_s": self_s("exec.runner"),
        "exec.pool.wall_s":
            rows.get("exec.pool", {}).get("total_s", 0.0) / units,
        "exec.pool.chunks": counts.get("exec.pool.chunks", 0.0) / units,
        "exec.cache.digest.self_s": self_s("exec.cache.digest"),
        "exec.cache.get.self_s": self_s("exec.cache.get"),
        "exec.cache.put.self_s": self_s("exec.cache.put"),
    }
    built = counts.get("sched.list_schedule.calls", 0.0)
    asked = counts.get("core.plans.schedule.calls", 0.0)
    v["core.plans.hit_ratio"] = 1.0 - built / asked if asked else 0.0
    padded = counts.get("core.batch.padded_cells", 0.0)
    v["core.batch.fill_ratio"] = \
        counts.get("core.batch.useful_cells", 0.0) / padded if padded \
        else 0.0
    return v
