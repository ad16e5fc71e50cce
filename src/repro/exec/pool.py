"""Chunked process-pool fan-out over experiment instances.

:func:`run_instances` applies a picklable function to every item of a
work list, either in-process (``jobs=1`` — zero overhead, exceptions
surface with their natural tracebacks) or across a
``ProcessPoolExecutor``.  Items are distributed in contiguous chunks to
amortise pickling, each application is timed in the worker, and results
always come back in *input order* regardless of completion order, so
callers never see scheduling nondeterminism.

Failures identify their item: any exception raised by ``fn`` is
annotated in flight with the index and ``repr`` of the failing instance
(``instance_index`` / ``instance_repr`` attributes plus an exception
note on Python >= 3.11) and still propagates with its original type.

When an :class:`~repro.obs.ObsLog` is passed, each worker records
per-chunk and per-instance spans into its own log and ships it back
inside the chunk's last :class:`InstanceResult`; the coordinating
process merges them, so a ``--jobs 8`` run yields one trace with a
lane per worker pid.

Callers can attach per-item span attributes via ``tags`` (one optional
dict per item) — the serve layer uses this to stamp each worker-side
``exec.instance`` span with the ``request_ids`` it is computing for,
so a service trace correlates pool work back to HTTP requests.  Tags
ride only in span args: they never reach ``fn`` and cannot change
results.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import ObsLog, live

__all__ = ["InstanceResult", "run_instances"]

ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class InstanceResult:
    """One work item's outcome.

    Attributes:
        index: position of the item in the input sequence.
        value: what the worker function returned.
        seconds: wall-clock time of the single ``fn(item)`` call,
            measured inside the worker process.
        obs: a worker-side :meth:`repro.obs.ObsLog.to_dict` payload
            carrying the chunk's spans (attached to the last result of
            each chunk under profiling, ``None`` otherwise).
    """

    index: int
    value: Any
    seconds: float
    obs: Optional[dict] = None


def _identify_failure(exc: BaseException, index: int, item: Any) -> None:
    """Annotate an in-flight worker exception with its failing item.

    The original exception type (and message) is preserved — callers
    keep catching what ``fn`` raises — but gains ``instance_index`` /
    ``instance_repr`` attributes and, on Python >= 3.11, a traceback
    note.  Both survive pickling across the pool boundary (they live in
    the exception's ``__dict__``).

    An exception that already carries ``instance_index`` keeps it: when
    an item is itself a *chunk* of instances, the worker annotates the
    precise failing instance before the pool sees the error, and the
    chunk-level index must not clobber that finer attribution.
    """
    if getattr(exc, "instance_index", None) is not None:
        return
    try:
        item_repr = repr(item)
    except Exception:  # repr() of a broken item must not mask the error
        item_repr = f"<unreprable {type(item).__name__}>"
    if len(item_repr) > 500:
        item_repr = item_repr[:497] + "..."
    try:
        exc.instance_index = index  # type: ignore[attr-defined]
        exc.instance_repr = item_repr  # type: ignore[attr-defined]
    except Exception:  # exceptions with __slots__ cannot carry attrs
        return
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        add_note(f"while evaluating instance {index}: {item_repr}")


#: Per-item span attributes: one optional small dict per work item.
ItemTags = Optional[Sequence[Optional[Dict[str, Any]]]]


def _check_tags(tags: ItemTags, total: int) -> None:
    if tags is not None and len(tags) != total:
        raise ValueError(f"tags length {len(tags)} != items {total}")


def _instance_attrs(index: int, tags: ItemTags,
                    offset: int) -> Dict[str, Any]:
    attrs: Dict[str, Any] = {"index": index}
    if tags is not None and tags[offset]:
        attrs.update(tags[offset])  # type: ignore[arg-type]
    return attrs


def _run_chunk(fn: Callable[[Any], Any], start: int,
               items: Sequence[Any],
               profile: bool = False,
               tags: ItemTags = None) -> List[InstanceResult]:
    """Worker-side body: apply ``fn`` to a contiguous chunk, timed."""
    log = ObsLog() if profile else None
    o = live(log)
    out: List[InstanceResult] = []
    with o.span("exec.chunk", category="exec",
                start=start, size=len(items)):
        for offset, item in enumerate(items):
            t0 = time.perf_counter()
            try:
                with o.span("exec.instance", category="exec",
                            **_instance_attrs(start + offset, tags,
                                              offset)):
                    value = fn(item)
            except BaseException as exc:
                _identify_failure(exc, start + offset, item)
                raise
            out.append(InstanceResult(start + offset, value,
                                      time.perf_counter() - t0))
    if log is not None and out:
        out[-1] = dataclasses.replace(out[-1], obs=log.to_dict())
    return out


def run_instances(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: int = 1,
    chunksize: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[ObsLog] = None,
    tags: ItemTags = None,
) -> List[InstanceResult]:
    """Apply ``fn`` to every item, possibly across worker processes.

    Args:
        fn: a picklable (module-level) single-argument callable.
        items: the work list; each element is passed to ``fn`` as-is.
        jobs: worker processes; ``1`` runs in-process with no pool.
        chunksize: items per pool task (default: ~4 chunks per worker).
        progress: called as ``progress(done, total)`` after each item
            (serial) or each completed chunk (parallel); ``done`` is
            strictly increasing and ends at ``total``.
        obs: optional :class:`~repro.obs.ObsLog`; records the fan-out
            span here plus per-chunk/per-instance worker spans (merged
            in as chunks complete).  Never changes results.
        tags: optional per-item span attributes (one small dict or
            ``None`` per item, same length as ``items``), merged into
            each item's ``exec.instance`` span args — request
            correlation for the serve layer.  Ignored when ``obs`` is
            ``None``; never passed to ``fn``.

    Returns:
        One :class:`InstanceResult` per item, in input order.

    Raises:
        Whatever ``fn`` raises — a worker exception aborts the run
        (fail-fast; pending chunks are cancelled) and propagates,
        annotated with the failing item's index and repr (see
        :func:`_identify_failure`).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    total = len(items)
    if total == 0:
        return []
    _check_tags(tags, total)
    o = live(obs)

    if jobs == 1:
        results = []
        with o.span("exec.run_instances", category="exec",
                    jobs=1, items=total):
            for i, item in enumerate(items):
                t0 = time.perf_counter()
                try:
                    with o.span("exec.instance", category="exec",
                                **_instance_attrs(i, tags, i)):
                        value = fn(item)
                except BaseException as exc:
                    _identify_failure(exc, i, item)
                    raise
                results.append(InstanceResult(i, value,
                                              time.perf_counter() - t0))
                if progress is not None:
                    progress(i + 1, total)
        o.count("exec.instances_run", total)
        return results

    if chunksize is None:
        chunksize = max(1, math.ceil(total / (jobs * 4)))
    chunks: List[Tuple[int, Sequence[Any]]] = [
        (start, items[start:start + chunksize])
        for start in range(0, total, chunksize)
    ]

    out: List[Optional[InstanceResult]] = [None] * total
    profile = obs is not None
    with o.span("exec.run_instances", category="exec",
                jobs=jobs, items=total, chunks=len(chunks)):
        with ProcessPoolExecutor(
                max_workers=min(jobs, len(chunks))) as pool:
            futures = {pool.submit(
                _run_chunk, fn, start, chunk, profile,
                tags[start:start + len(chunk)] if tags is not None
                else None): len(chunk)
                       for start, chunk in chunks}
            done = 0
            try:
                for future in as_completed(futures):
                    for result in future.result():
                        if obs is not None and result.obs is not None:
                            obs.merge_dict(result.obs)
                        out[result.index] = result
                    done += futures[future]
                    if progress is not None:
                        progress(done, total)
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
    o.count("exec.instances_run", total)
    o.count("exec.chunks_run", len(chunks))
    assert all(r is not None for r in out)
    return out  # type: ignore[return-value]


def run_instances_shm(*args: Any, **kwargs: Any) -> List[InstanceResult]:
    """The retired shared-memory transport's name for :func:`run_instances`.

    perfbench/tracing.py still names it as a trace target, so the name
    stays until the benchmark drops it.  It is a function of its own,
    not the same object: the tracer wraps every reference to a target
    in place, and a second target that *is* ``run_instances`` would
    nest a second ``exec.pool`` span inside every pool call.
    """
    return run_instances(*args, **kwargs)
