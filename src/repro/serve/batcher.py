"""In-flight dedupe and batched dispatch of schedule requests.

The service's compute engine.  Two mechanisms, both keyed by the
content-addressed instance digest:

* **Dedupe** — identical requests arriving while one is queued or in
  flight all await the *same* future; the instance is computed once and
  every waiter gets the one payload.  A flight stays registered until
  its future resolves, so a request arriving mid-computation still
  coalesces.
* **Batching** — queued misses are collected for a short linger window
  (``window_seconds``) and dispatched *together* as one
  :func:`repro.exec.runner.evaluate_suite_instances` call, which chunks
  them through :func:`repro.core.suite.paper_suite_batch` batched
  sweeps and (with ``jobs > 1``) the pool fan-out — the
  PR-6 campaign engine, now fed by live traffic.  Only requests with
  the same policy share a dispatch (the platform is server-wide);
  mixed-policy bursts dispatch in arrival-order groups.

Dispatches run on a dedicated single worker thread, so the event loop
keeps accepting (and warm-serving) requests while a batch computes.
Cache writes happen inside ``evaluate_suite_instances`` exactly as in a
campaign run, so a served cold request warms both this process and any
concurrent campaign sharing the cache directory.

A per-instance failure (e.g. an infeasible deadline) must not poison
co-batched requests: the batch is retried without the attributed
offender — each retry removes one instance, so the loop is bounded —
and the failing request alone resolves to its exception.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..core.platform import Platform, default_platform
from ..exec.cache import summarize_results
from ..exec.runner import ExecOptions, evaluate_suite_instances
from ..obs import ObsLog, live
from .protocol import ScheduleRequest

__all__ = ["ScheduleBatcher"]

#: What a flight resolves to: the summaries payload, or the exception
#: that instance raised (kept as a value so abandoned futures never
#: warn about unretrieved exceptions).
FlightResult = Union[List[dict], BaseException]


@dataclass
class _Flight:
    """One unique in-flight instance and everyone waiting on it."""

    request: ScheduleRequest
    future: "asyncio.Future[FlightResult]"
    waiters: int = 1
    #: Correlation ids of every HTTP request riding this flight — the
    #: submitter's plus each deduped joiner's, in arrival order.  They
    #: travel into the dispatch as span attributes so the trace shows
    #: which requests a chunk served, dedupe included.
    request_ids: List[str] = field(default_factory=list)


@dataclass
class BatcherStats:
    """Dispatch counters for the ``/stats`` dashboard."""

    dispatches: int = 0
    empty_dispatches: int = 0
    dispatched_instances: int = 0
    deduped: int = 0
    failed_instances: int = 0
    max_batch_seen: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


class ScheduleBatcher:
    """Dedupe + linger-batch + dispatch, owned by the event loop."""

    def __init__(self, options: ExecOptions, *,
                 platform: Optional[Platform] = None,
                 max_batch: int = 32,
                 window_seconds: float = 0.002,
                 obs: Optional[ObsLog] = None) -> None:
        self.options = options
        self.platform = platform or default_platform()
        self.max_batch = max(1, max_batch)
        self.window_seconds = window_seconds
        self.obs = obs
        self.stats = BatcherStats()
        self._flights: Dict[str, _Flight] = {}
        self._queue: List[str] = []
        self._wake = asyncio.Event()
        self._task: Optional["asyncio.Task[None]"] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-dispatch")

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the dispatch loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch_loop())

    async def stop(self) -> None:
        """Stop dispatching; fail whatever is still queued."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        shutdown = RuntimeError("server shutting down")
        for flight in self._flights.values():
            if not flight.future.done():
                flight.future.set_result(shutdown)
        self._flights.clear()
        self._queue.clear()
        # shutdown(wait=True) joins the dispatch thread — that wait
        # belongs on the default executor, not the event loop.
        await asyncio.get_running_loop().run_in_executor(
            None, self._executor.shutdown)

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the dispatch loop task is alive (readiness)."""
        return self._task is not None and not self._task.done()

    @property
    def queue_depth(self) -> int:
        """Flights queued but not yet taken into a dispatch (gauge)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    async def submit(self, request: ScheduleRequest,
                     request_id: Optional[str] = None
                     ) -> "tuple[FlightResult, bool]":
        """Resolve one cache-missed request; returns (result, deduped).

        The first request for a key registers a flight and queues it;
        identical requests while that flight is open piggyback on its
        future.  The caller inspects the result: a payload list on
        success, the instance's exception otherwise.  ``request_id``
        (when given) is recorded on the flight for trace correlation —
        every rider's id reaches the dispatch spans, not just the
        opener's.
        """
        flight = self._flights.get(request.key)
        if flight is not None:
            flight.waiters += 1
            if request_id is not None:
                flight.request_ids.append(request_id)
            self.stats.deduped += 1
            live(self.obs).count("serve.deduped")
            return await asyncio.shield(flight.future), True
        loop = asyncio.get_running_loop()
        flight = _Flight(request=request, future=loop.create_future(),
                         request_ids=[request_id]
                         if request_id is not None else [])
        self._flights[request.key] = flight
        self._queue.append(request.key)
        self._wake.set()
        return await asyncio.shield(flight.future), False

    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            if self.window_seconds > 0:
                # Linger: let a concurrent burst coalesce into one
                # batched dispatch instead of N single-instance ones.
                await asyncio.sleep(self.window_seconds)
            batch = self._take_batch()
            if not batch:
                if not self._queue:
                    self._wake.clear()
                continue
            if not self._queue:
                self._wake.clear()
            await self._dispatch(batch)

    def _take_batch(self) -> List[_Flight]:
        """Up to ``max_batch`` queued flights sharing the head's policy."""
        if not self._queue:
            return []
        policy = self._flights[self._queue[0]].request.policy
        batch: List[_Flight] = []
        rest: List[str] = []
        for key in self._queue:
            flight = self._flights[key]
            if (len(batch) < self.max_batch
                    and flight.request.policy == policy):
                batch.append(flight)
            else:
                rest.append(key)
        self._queue = rest
        return batch

    async def _dispatch(self, batch: List[_Flight]) -> None:
        o = live(self.obs)
        self.stats.dispatches += 1
        self.stats.dispatched_instances += len(batch)
        self.stats.max_batch_seen = max(self.stats.max_batch_seen,
                                        len(batch))
        o.count("serve.dispatches")
        o.count("serve.dispatched_instances", len(batch))
        requests = [f.request for f in batch]
        # Snapshot correlation ids on the event loop before handing off:
        # joiners that dedupe onto a flight *after* this point get the
        # payload but arrived too late to be part of this dispatch.
        request_ids = [list(f.request_ids) for f in batch]
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._compute, requests, request_ids)
        except BaseException as exc:  # defensive: _compute never raises
            outcomes = [exc] * len(batch)
        for flight, outcome in zip(batch, outcomes):
            if isinstance(outcome, BaseException):
                self.stats.failed_instances += 1
                o.count("serve.failed_instances")
            self._flights.pop(flight.request.key, None)
            if not flight.future.done():
                flight.future.set_result(outcome)

    # ------------------------------------------------------------------
    def _compute(self, requests: List[ScheduleRequest],
                 request_ids: Optional[List[List[str]]] = None
                 ) -> List[FlightResult]:
        """Worker-thread body: one batched campaign over the requests.

        Failures are attributed per instance and retried without the
        offender, so one infeasible request cannot fail its batch —
        and each retry re-sends the *surviving* requests' correlation
        ids, so attribution follows the instances, not the batch.
        """
        o = live(self.obs)
        outcomes: List[Optional[FlightResult]] = [None] * len(requests)
        todo = list(range(len(requests)))
        policy = requests[0].policy
        if request_ids is None:
            request_ids = [[] for _ in requests]
        all_ids = [rid for ids in request_ids for rid in ids]
        t0 = time.perf_counter()
        with o.span("serve.dispatch", category="serve",
                    instances=len(requests), policy=policy,
                    request_ids=all_ids):
            while todo:
                instances = [(requests[i].graph,
                              requests[i].deadline_cycles) for i in todo]
                try:
                    results = evaluate_suite_instances(
                        instances, platform=self.platform, policy=policy,
                        options=self.options,
                        request_ids=[request_ids[i] for i in todo])
                except Exception as exc:
                    idx = getattr(exc, "instance_index", None)
                    if idx is None or not 0 <= idx < len(todo):
                        for i in todo:
                            outcomes[i] = exc
                        break
                    outcomes[todo.pop(idx)] = exc
                    o.count("serve.batch_retries")
                    continue
                for i, res in zip(todo, results):
                    # Round-trips exactly: summaries are what the cache
                    # stored and what restore_results rebuilt.
                    outcomes[i] = summarize_results(res)
                break
        o.observe("serve.dispatch_seconds", time.perf_counter() - t0)
        fresh = self.options.instance_seconds
        if fresh:
            o.count("serve.fresh_instances", len(fresh))
            for seconds in fresh:
                o.observe("serve.instance_seconds", seconds)
            fresh.clear()
        assert all(out is not None for out in outcomes)
        return outcomes  # type: ignore[return-value]
