"""Cache-aware parallel evaluation of paper-suite instances.

:func:`evaluate_suite_instances` is the bridge between the experiment
modules and the :mod:`cache <repro.exec.cache>`/:mod:`pool
<repro.exec.pool>` layers: look every instance up, fan the misses out
over the pool, store fresh summaries, and hand back restored
:class:`~repro.core.results.ScheduleResult` dicts in input order.

Misses travel in contiguous *chunks* through
:func:`repro.exec.pool.run_instances`: each chunk is one
:func:`repro.core.suite.paper_suite_batch` broadcast in the worker, and
its summaries come back as a dense ``(chunk, 6, 16)`` float64 block.
Strict and profile campaigns run the same chunks; their workers also
return the chunk's audit counters and obs payload.  All modes —
serial, parallel, strict, profiled, warm cache — pass through the same
summarize/restore round-trip and are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..audit.report import AuditLog
from ..core.platform import Platform, default_platform
from ..core.results import Heuristic, ScheduleResult
from ..graphs.dag import TaskGraph
from ..obs import ObsLog, live
from .cache import ResultCache, instance_digest, restore_results, \
    summarize_results
from .pool import run_instances

__all__ = ["ExecOptions", "evaluate_suite_instances"]

#: One experiment instance: (scenario-scaled graph, deadline in cycles).
Instance = Tuple[TaskGraph, float]


@dataclass
class ExecOptions:
    """How an experiment campaign executes (not *what* it computes).

    Attributes:
        jobs: worker processes for the instance fan-out (1 = serial,
            in-process).
        cache_dir: root of the on-disk result cache; ``None`` disables
            caching entirely.
        use_cache: master switch — ``False`` ignores ``cache_dir``
            (the CLI's ``--no-cache``).
        progress: optional ``(done, total)`` callback forwarded to
            :func:`repro.exec.pool.run_instances`.
        strict: run every fresh instance under the
            :mod:`repro.audit` invariant checks.  A violation raises
            :class:`~repro.audit.report.AuditViolationError` in the
            worker; counters from all workers are merged into
            :meth:`open_audit`'s log.  Strict mode never changes the
            results or what is written to the cache.
        profile: record spans/counters/latencies into
            :meth:`open_obs`'s :class:`~repro.obs.ObsLog` — worker-side
            logs are merged in, so a ``--jobs 8`` campaign yields one
            coherent multi-process trace.  Like ``strict``, profiling
            never changes the results or the cache bytes.
        batch_chunk: instances per chunk (the unit of pool dispatch
            and of one :class:`~repro.core.batch.ScheduleBatch`
            broadcast).
        cache_max_bytes: size bound of the on-disk cache; when set, the
            cache evicts least-recently-used entries (and sweeps
            orphaned temp files) as it grows past the budget — the
            long-running-service mode.  ``None`` (the default) keeps
            the historical unbounded behaviour, byte-for-byte.
        live_obs: an externally-owned :class:`~repro.obs.ObsLog` (the
            serve app's, typically retention-bounded) that the
            pool-level ``exec.chunk`` / ``exec.instance`` worker spans
            are recorded into.  Unlike ``profile`` it records no
            suite-internal spans.  ``None`` (campaigns) records nothing
            extra.
    """

    jobs: int = 1
    cache_dir: Optional[Union[str, Path]] = None
    use_cache: bool = True
    progress: Optional[object] = None
    strict: bool = False
    profile: bool = False
    batch_chunk: int = 32
    cache_max_bytes: Optional[int] = None
    live_obs: Optional[ObsLog] = field(
        default=None, repr=False, compare=False)
    _cache: Optional[ResultCache] = field(
        default=None, init=False, repr=False, compare=False)
    _audit: Optional[AuditLog] = field(
        default=None, init=False, repr=False, compare=False)
    _obs: Optional[ObsLog] = field(
        default=None, init=False, repr=False, compare=False)
    #: Worker-measured wall seconds of every *fresh* (non-cached)
    #: instance across the campaign — the runner-summary satellite.
    instance_seconds: List[float] = field(
        default_factory=list, init=False, repr=False, compare=False)

    def open_cache(self) -> Optional[ResultCache]:
        """The shared :class:`ResultCache`, or ``None`` when disabled."""
        if not self.use_cache or self.cache_dir is None:
            return None
        if self._cache is None:
            self._cache = ResultCache(self.cache_dir,
                                      obs=self.open_obs() or self.live_obs,
                                      max_bytes=self.cache_max_bytes)
        return self._cache

    def open_audit(self) -> Optional[AuditLog]:
        """The campaign-wide :class:`AuditLog` (``None`` unless strict)."""
        if not self.strict:
            return None
        if self._audit is None:
            self._audit = AuditLog(strict=True)
        return self._audit

    def open_obs(self) -> Optional[ObsLog]:
        """The campaign-wide :class:`ObsLog` (``None`` unless profiling)."""
        if not self.profile:
            return None
        if self._obs is None:
            self._obs = ObsLog()
        return self._obs

    def timing_summary(self) -> Optional[str]:
        """One-line wall-time summary of the fresh instances, or ``None``.

        Surfaces the per-instance ``InstanceResult.seconds`` the pool
        already measures: e.g. ``instances: 36 fresh, 12.41 s total,
        0.345 s mean, 1.203 s max``.
        """
        times = self.instance_seconds
        if not times:
            return None
        total = sum(times)
        return (f"instances: {len(times)} fresh, {total:.2f} s total, "
                f"{total / len(times):.3f} s mean, {max(times):.3f} s max")


#: Fixed row order of the (6, 16) per-instance summary array — the
#: paper's presentation order, which is also the iteration order of
#: :func:`~repro.exec.cache.summarize_results`.
_ROW_ORDER = (Heuristic.SNS, Heuristic.LAMPS, Heuristic.SNS_PS,
              Heuristic.LAMPS_PS, Heuristic.LIMIT_SF, Heuristic.LIMIT_MF)
#: Columns: busy, idle, sleep, overhead, n_shutdowns, has_point,
#: frequency, vdd, active_power, idle_power, energy_per_cycle, vbs,
#: n_processors, deadline_cycles, deadline_seconds, meets_deadline.
_N_COLS = 16


def _encode_summaries(summaries: List[dict]) -> "np.ndarray":
    """One instance's summary dicts as a dense (6, 16) float64 array.

    A chunk's summaries cross the pool as one homogeneous float64
    block; this packs the exact
    :func:`~repro.exec.cache.summarize_results` payload into it.  Every
    value survives bit-exactly: the floats are float64 already, and the
    integer/boolean fields (shutdown counts, processor counts, the
    feasibility flag) are far below 2**53.
    """
    assert len(summaries) == len(_ROW_ORDER)
    arr = np.zeros((len(_ROW_ORDER), _N_COLS))
    for h, row, d in zip(_ROW_ORDER, arr, summaries):
        assert d["heuristic"] == h.value
        e = d["energy"]
        row[0:5] = (e["busy"], e["idle"], e["sleep"], e["overhead"],
                    e["n_shutdowns"])
        p = d["point"]
        if p is not None:
            row[5] = 1.0
            row[6:12] = (p["frequency"], p["vdd"], p["active_power"],
                         p["idle_power"], p["energy_per_cycle"], p["vbs"])
        # n_processors is None for the LIMIT bounds — NaN is its
        # sentinel (a real count is always a small non-NaN integer).
        row[12:16] = (np.nan if d["n_processors"] is None
                      else d["n_processors"],
                      d["deadline_cycles"], d["deadline_seconds"],
                      1.0 if d["meets_deadline"] else 0.0)
    return arr


def _decode_summaries(arr: "np.ndarray", graph_name: Optional[str]
                      ) -> List[dict]:
    """Inverse of :func:`_encode_summaries`.

    Rebuilds the exact :func:`~repro.exec.cache.summarize_results`
    dicts — including Python types: ``n_shutdowns`` and
    ``n_processors`` back to ``int``, ``meets_deadline`` back to
    ``bool`` — so the JSON the cache writes is byte-identical to that
    of the summaries themselves (``2`` and ``2.0`` are different JSON
    bytes).
    ``graph_name`` is reattached from the coordinator's own instance
    list; it never rides in the array.
    """
    out = []
    for h, row in zip(_ROW_ORDER, arr):
        point = None if row[5] == 0.0 else {
            "frequency": float(row[6]),
            "vdd": float(row[7]),
            "active_power": float(row[8]),
            "idle_power": float(row[9]),
            "energy_per_cycle": float(row[10]),
            "vbs": float(row[11]),
        }
        out.append({
            "heuristic": h.value,
            "graph_name": graph_name,
            "energy": {
                "busy": float(row[0]),
                "idle": float(row[1]),
                "sleep": float(row[2]),
                "overhead": float(row[3]),
                "n_shutdowns": int(row[4]),
            },
            "point": point,
            "n_processors": None if np.isnan(row[12]) else int(row[12]),
            "deadline_cycles": float(row[13]),
            "deadline_seconds": float(row[14]),
            "meets_deadline": bool(row[15]),
        })
    return out


def _suite_chunk_worker(
        item: "Tuple[int, Tuple[Instance, ...], Optional[Platform], str, "
              "bool, bool]",
) -> object:
    """Evaluate a contiguous chunk of instances in one batched sweep.

    Returns a ``(len(chunk), 6, 16)`` float64 array of encoded
    summaries — one compact pickle per chunk.  Under
    ``strict`` and/or ``profile`` it returns ``(block, audit counters
    or None, obs payload or None)`` instead, for the runner to merge;
    the block is identical either way.  ``start`` is the chunk's offset
    in the pending work list: a failing instance is annotated
    chunk-locally by :func:`paper_suite_batch` and rebased here to its
    global pending index.
    """
    from ..core.suite import paper_suite_batch

    start, chunk, platform, policy, strict, profile = item
    log = AuditLog(strict=True) if strict else None
    obs = ObsLog() if profile else None
    try:
        results = paper_suite_batch(list(chunk), platform=platform,
                                    policy=policy, audit=log, obs=obs)
    except BaseException as exc:
        local = getattr(exc, "instance_index", None)
        if local is not None:
            exc.instance_index = start + local  # type: ignore[attr-defined]
        raise
    if results:
        block = np.stack([_encode_summaries(summarize_results(r))
                          for r in results])
    else:
        # A zero-instance chunk (the server's empty-dispatch path, or a
        # fully-warm batch) must still round-trip the transport, and
        # np.stack refuses an empty list.
        block = np.zeros((0, len(_ROW_ORDER), _N_COLS))
    if log is None and obs is None:
        return block
    return (block, None if log is None else log.counters(),
            None if obs is None else obs.to_dict())


def evaluate_suite_instances(
    instances: Sequence[Instance],
    *,
    platform: Optional[Platform] = None,
    policy: str = "edf",
    options: Optional[ExecOptions] = None,
    request_ids: Optional[Sequence[Optional[Sequence[str]]]] = None,
) -> List[Dict[Heuristic, ScheduleResult]]:
    """Run :func:`paper_suite` on every instance, cached and in parallel.

    Args:
        instances: ``(graph, deadline_cycles)`` pairs; graphs must
            already be scenario-scaled.
        platform: shared platform (default: the paper's 70 nm one).
        policy: list-scheduling priority; only named (string) policies
            are cacheable — callables silently bypass the cache.
        options: execution knobs; default is serial and uncached,
            which reproduces the historical behaviour exactly.
        request_ids: optional request correlation, one entry per
            instance: the originating serve-layer request ids (several
            when dedupe coalesced identical requests).  They become
            span attributes on the worker-side ``exec.chunk`` /
            ``exec.instance`` spans when an obs log is live
            (``profile`` or ``options.live_obs``); they never affect
            evaluation or the cache.

    Returns:
        One heuristic→result dict per instance, in input order.  The
        results carry ``schedule=None`` (summaries only — see
        :mod:`repro.exec.cache`).
    """
    platform = platform or default_platform()
    options = options or ExecOptions()
    if (request_ids is not None
            and len(request_ids) != len(instances)):
        raise ValueError(
            f"request_ids length {len(request_ids)} != instances "
            f"{len(instances)}")
    cache = options.open_cache() if isinstance(policy, str) else None
    audit = options.open_audit()
    obs = options.open_obs()
    # The profile log also collects the workers' suite spans; the
    # serve app's live_obs only receives the pool-level spans.
    pool_obs = obs if obs is not None else options.live_obs
    o = live(pool_obs)

    results: List[Optional[Dict[Heuristic, ScheduleResult]]] = \
        [None] * len(instances)
    keys: List[Optional[str]] = [None] * len(instances)
    pending: List[int] = []
    with o.span("exec.cache_lookup", category="exec",
                instances=len(instances), cached=cache is not None):
        for i, (graph, deadline) in enumerate(instances):
            if cache is not None:
                keys[i] = instance_digest(graph, deadline, platform,
                                          policy)
                payload = cache.get(keys[i])
                if payload is not None:
                    results[i] = restore_results(payload)
                    if audit is not None:
                        # Summaries carry no schedule, so there is
                        # nothing to re-validate — count the restore
                        # instead.
                        audit.cache_hits += 1
                    continue
            pending.append(i)

    # Contiguous chunks of pending instances, each evaluated by one
    # paper_suite_batch broadcast in a worker, results shipped back as
    # dense float64 blocks and decoded here into the exact summary
    # payloads.
    chunksize = max(1, options.batch_chunk)
    total = len(pending)
    wrapped = audit is not None or obs is not None
    chunk_items = [
        (start,
         tuple(instances[i] for i in pending[start:start + chunksize]),
         platform, policy, audit is not None, obs is not None)
        for start in range(0, total, chunksize)
    ]

    progress = options.progress
    chunk_progress = None
    if progress is not None:
        def chunk_progress(done: int, _total_chunks: int) -> None:
            # The pool counts completed chunk-items; report instances.
            progress(min(done * chunksize, total), total)

    chunk_tags: Optional[List[Optional[Dict[str, Any]]]] = None
    if request_ids is not None:
        chunk_tags = []
        for start in range(0, total, chunksize):
            rids: List[str] = []
            for i in pending[start:start + chunksize]:
                if request_ids[i]:
                    rids.extend(request_ids[i])
            chunk_tags.append({"request_ids": rids} if rids else None)

    for item in run_instances(_suite_chunk_worker, chunk_items,
                              jobs=options.jobs, chunksize=1,
                              progress=chunk_progress, obs=pool_obs,
                              tags=chunk_tags):
        start = chunk_items[item.index][0]
        block = item.value
        if wrapped:
            block, counters, trace = block
            if audit is not None:
                audit.merge(counters)
            if obs is not None:
                obs.merge_dict(trace)
        k = block.shape[0]
        mean_seconds = item.seconds / k
        for local in range(k):
            i = pending[start + local]
            payload = _decode_summaries(block[local],
                                        instances[i][0].name)
            options.instance_seconds.append(mean_seconds)
            if cache is not None:
                cache.put(keys[i], payload)
            results[i] = restore_results(payload)
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
