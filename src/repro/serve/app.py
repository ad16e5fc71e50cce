"""The asyncio HTTP/JSON schedule service.

A deliberately small HTTP/1.1 layer over ``asyncio.start_server`` — no
framework, no new dependencies — in front of three endpoints:

* ``POST /v1/schedule`` — parse (:mod:`protocol
  <repro.serve.protocol>`), admit (:mod:`admission
  <repro.serve.admission>`), answer warm hits straight from the
  :class:`~repro.exec.cache.ResultCache` without waking any worker,
  and hand misses to the :class:`~repro.serve.batcher.ScheduleBatcher`
  for deduped, batched dispatch.
* ``GET /stats`` — live counters, latency histograms, rolling-window
  rates/quantiles, admission and batcher state, cache size: the
  service dashboard as JSON (what ``repro top`` polls).
* ``GET /metrics`` — the same state in Prometheus text exposition
  (:func:`repro.obs.metrics.render_prometheus`): since-boot counters,
  cumulative-``le`` latency histograms, point-in-time gauges
  (in-flight requests, batcher queue depth, cache entries/bytes,
  retained spans, and ``sched.ckernel_active``: 1 when the C kernel
  runs, 0 on the Python references) and sliding-window rate/quantile
  gauges.
* ``GET /healthz`` — readiness probe: 200 with per-check detail when
  the service can actually serve (cache directory writable, batcher
  dispatch loop alive), 503 with a reason otherwise.

Every request is minted a ``request_id`` (echoed in the response) and
leaves a ``serve.request`` span in the server's
:class:`~repro.obs.ObsLog` (appended as a closed record — the event
loop interleaves requests, so context-manager nesting would lie about
parentage), which makes a ``--profile`` trace of a serving session
readable by ``repro stats`` like any campaign profile.  The server's
log is retention-bounded (``obs_max_spans``), so a week of traffic
holds constant memory while counters, histograms and evicted-span
aggregates stay exact.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, Optional, Tuple, Union

from ..core.platform import Platform, default_platform
from ..core.results import InfeasibleScheduleError
from ..exec.runner import ExecOptions
from ..obs import ObsLog, WindowAggregator, render_prometheus
from ..obs.log import SpanRecord
from ..sched.ckernel import CKERNEL_ACTIVE
from ..sched.deadlines import InfeasibleDeadlineError
from .admission import AdmissionController
from .batcher import ScheduleBatcher
from .protocol import MAX_BODY_BYTES, ProtocolError, encode_error, \
    encode_ok, parse_request

__all__ = ["ScheduleServer"]

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 411: "Length Required",
            413: "Payload Too Large", 422: "Unprocessable Entity",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Infeasible instances are a client problem (the deadline cannot be
#: met at any ladder point), not a server fault.
_INFEASIBLE = (InfeasibleScheduleError, InfeasibleDeadlineError)


class _HttpError(Exception):
    """Internal short-circuit carrying a ready error response."""

    def __init__(self, status: int, kind: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.doc = encode_error(kind, detail)


class ScheduleServer:
    """One service instance: HTTP front, cache, batcher, admission.

    Args:
        cache_dir: result-cache root; ``None`` serves every request
            through the batcher (no warm hits, nothing persisted).
        cache_max_bytes: size bound for the cache — the long-running
            mode; LRU entries are evicted and orphaned temp files swept
            as traffic grows the tree past the budget.
        jobs: worker processes per dispatch (1 = compute on the
            dispatch thread, in-process).
        batch_chunk: forwarded to :class:`ExecOptions` — the
            campaign engine's instances per pool chunk.
        max_batch: most instances coalesced into one dispatch.
        window_seconds: linger before dispatching, letting a burst
            coalesce.
        max_pending: admission ceiling; excess requests are shed
            with 429.
        platform: server-wide platform (default: the paper's 70 nm).
        obs: the service's recorder; when absent a retention-bounded
            one (``ObsLog(max_spans=obs_max_spans)``) is created and
            exposed as :attr:`obs` for the stats endpoint and for
            trace export on shutdown.
        obs_max_spans: span-retention bound of the auto-created log
            (ignored when ``obs`` is passed); ``None`` keeps every
            span — campaign semantics, unbounded memory.
        metrics_window_seconds: width of the sliding window behind the
            ``/metrics`` and ``/stats`` rate/quantile gauges.
    """

    def __init__(self, *, cache_dir: Optional[str] = None,
                 cache_max_bytes: Optional[int] = None,
                 jobs: int = 1, batch_chunk: int = 32,
                 max_batch: int = 32, window_seconds: float = 0.002,
                 max_pending: int = 64,
                 platform: Optional[Platform] = None,
                 obs: Optional[ObsLog] = None,
                 obs_max_spans: Optional[int] = 50_000,
                 metrics_window_seconds: float = 60.0) -> None:
        self.obs = obs if obs is not None \
            else ObsLog(max_spans=obs_max_spans)
        self.window = WindowAggregator(
            self.obs, window_seconds=metrics_window_seconds)
        self.platform = platform or default_platform()
        # live_obs records the dispatch's pool/worker spans into the
        # service log without the suite spans of profile mode; it also
        # wires the cache's latency histograms in via open_cache().
        self.options = ExecOptions(
            jobs=jobs, cache_dir=cache_dir,
            use_cache=cache_dir is not None,
            batch_chunk=batch_chunk, cache_max_bytes=cache_max_bytes,
            live_obs=self.obs)
        self.cache = self.options.open_cache()
        self.admission = AdmissionController(max_pending=max_pending)
        self.batcher = ScheduleBatcher(
            self.options, platform=self.platform, max_batch=max_batch,
            window_seconds=window_seconds, obs=self.obs)
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._request_seq = itertools.count(1)

    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 8642) -> Tuple[str, int]:
        """Bind and serve; returns the bound (host, port) — port 0 OK."""
        await self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Stop accepting, fail queued flights, release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        await self.batcher.stop()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                        ConnectionError):
                    break
                method, target, keep_alive, length = \
                    self._parse_head(head)
                if length > MAX_BODY_BYTES:
                    await self._respond(writer, 413, encode_error(
                        "too_large", "request body too large"))
                    break
                body = await reader.readexactly(length) if length else b""
                status, doc = await self._route(method, target, body)
                await self._respond(writer, status, doc)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown closed this connection mid-request; ending the
            # handler normally keeps the teardown quiet.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    @staticmethod
    def _parse_head(head: bytes) -> Tuple[str, str, bool, int]:
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            return "GET", "/__malformed__", False, 0
        method, target, version = parts
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        keep_alive = headers.get(
            "connection", "keep-alive" if version == "HTTP/1.1"
            else "close").lower() != "close"
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = 0
        return method, target, keep_alive, max(0, length)

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       doc: Union[Dict[str, Any], str]) -> None:
        if isinstance(doc, str):
            # The Prometheus exposition endpoint: preformatted text.
            body = doc.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(doc).encode()
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n").encode()
        writer.write(head + b"\r\n" + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, target: str, body: bytes
                     ) -> Tuple[int, Union[Dict[str, Any], str]]:
        # The document builders are sync on purpose (tests drive them
        # directly) but touch the cache directory, so serving them off
        # the event loop would stall every in-flight request behind a
        # slow disk: hand them to the default executor.
        loop = asyncio.get_running_loop()
        if target == "/healthz":
            ready, doc = await loop.run_in_executor(None, self.readiness)
            return (200 if ready else 503), doc
        if target == "/stats":
            return 200, await loop.run_in_executor(
                None, self.stats_document)
        if target == "/metrics":
            return 200, await loop.run_in_executor(
                None, self.metrics_document)
        if target == "/v1/schedule":
            if method != "POST":
                return 405, encode_error("method_not_allowed",
                                         "use POST /v1/schedule")
            return await self._handle_schedule(body)
        return 404, encode_error("not_found", f"no route for {target}")

    async def _handle_schedule(self, body: bytes
                               ) -> Tuple[int, Dict[str, Any]]:
        wall = time.time()
        t0 = time.perf_counter()
        rid = f"r{next(self._request_seq):08d}"
        self.obs.count("serve.requests")
        if not self.admission.try_enter():
            self.obs.count("serve.shed")
            doc = encode_error(
                "overloaded",
                f"{self.admission.pending} requests already pending; "
                f"retry shortly", request_id=rid)
            self._record_request(wall, time.perf_counter() - t0, 429,
                                 rid)
            return 429, doc
        status = 500
        try:
            status, doc = await self._schedule_admitted(body, rid)
            return status, doc
        finally:
            self.admission.leave()
            dt = time.perf_counter() - t0
            self.obs.observe("serve.request", dt)
            self._record_request(wall, dt, status, rid)

    async def _schedule_admitted(self, body: bytes, rid: str
                                 ) -> Tuple[int, Dict[str, Any]]:
        # parse_request may pull a bundled graph off disk and the warm
        # read hits the cache directory — both block, so both go
        # through the executor.
        loop = asyncio.get_running_loop()
        try:
            request = await loop.run_in_executor(
                None, parse_request, body, self.platform)
        except ProtocolError as exc:
            self.obs.count("serve.bad_requests")
            return 400, encode_error("bad_request", str(exc),
                                     request_id=rid)
        if self.cache is not None:
            payload = await loop.run_in_executor(
                None, self.cache.get, request.key)
            if payload is not None:
                # The service's whole point: a warm instance costs one
                # disk read — no dispatch, no worker, no recompute.
                self.obs.count("serve.warm_hits")
                return 200, encode_ok(request.key, payload, cached=True,
                                      request_id=rid)
        outcome, deduped = await self.batcher.submit(request, rid)
        if isinstance(outcome, BaseException):
            if isinstance(outcome, _INFEASIBLE):
                return 422, encode_error("infeasible", str(outcome),
                                         key=request.key, request_id=rid)
            return 500, encode_error("internal",
                                     f"{type(outcome).__name__}: "
                                     f"{outcome}", key=request.key,
                                     request_id=rid)
        self.obs.count("serve.computed")
        return 200, encode_ok(request.key, outcome, cached=False,
                              deduped=deduped, request_id=rid)

    # ------------------------------------------------------------------
    def _record_request(self, wall: float, duration: float,
                        status: int, rid: str) -> None:
        """Append a closed per-request span (event-loop-safe: no stack)."""
        self.obs.spans.append(SpanRecord(
            name="serve.request", category="serve", start=wall,
            duration=duration, self_time=duration,
            pid=self.obs._pid, tid=threading.get_ident(), depth=0,
            args={"status": status, "request_id": rid}))

    def readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """The ``/healthz`` verdict: ``(ready, response document)``.

        Readiness means the service can actually make progress: the
        dispatch loop is alive and (when caching) the cache directory
        accepts writes.  The document always carries the per-check
        booleans and the admission gauge; when not ready it names the
        failing check so an orchestrator's 503 is actionable.
        """
        checks: Dict[str, bool] = {
            "batcher_running": self.batcher.running,
        }
        if self.cache is not None:
            checks["cache_dir_writable"] = self._cache_dir_writable()
        ready = all(checks.values())
        doc: Dict[str, Any] = {
            "ok": ready,
            "checks": checks,
            "pending": self.admission.pending,
            "max_pending": self.admission.max_pending,
        }
        if not ready:
            failing = sorted(k for k, v in checks.items() if not v)
            doc["reason"] = "failed checks: " + ", ".join(failing)
        return ready, doc

    def _cache_dir_writable(self) -> bool:
        """Probe by creating a file — ``os.access`` lies under root."""
        assert self.cache is not None
        try:
            # A fresh server's root may not exist yet; the cache would
            # create it on first put, so the probe does the same.
            self.cache.root.mkdir(parents=True, exist_ok=True)
            fd, probe = tempfile.mkstemp(prefix=".healthz-",
                                         dir=self.cache.root)
        except OSError:
            return False
        os.close(fd)
        try:
            os.unlink(probe)
        except OSError:
            pass
        return True

    def metrics_document(self) -> str:
        """The ``GET /metrics`` Prometheus text exposition."""
        self.window.sample()
        gauges: Dict[str, float] = {
            "serve.inflight_requests": self.admission.pending,
            "serve.queue_depth": self.batcher.queue_depth,
            "obs.spans_retained": len(self.obs.spans),
            "sched.ckernel_active": float(CKERNEL_ACTIVE),
        }
        extra_counters: Dict[str, int] = {
            "serve.admitted": self.admission.admitted,
            "obs.evicted_spans": self.obs.evicted_spans,
        }
        if self.cache is not None:
            s = self.cache.stats
            extra_counters.update({
                "cache.hits": s.hits, "cache.misses": s.misses,
                "cache.evictions": s.evictions,
                "cache.bytes_read": s.bytes_read,
                "cache.bytes_written": s.bytes_written,
                "cache.tmp_swept": s.tmp_swept,
            })
            entries, nbytes = self.cache.usage()
            gauges["cache.entries"] = entries
            gauges["cache.bytes"] = nbytes
        return render_prometheus(self.obs, gauges=gauges,
                                 extra_counters=extra_counters,
                                 window=self.window)

    def stats_document(self) -> Dict[str, Any]:
        """The ``/stats`` payload — `repro stats` in JSON form.

        ``counters`` and ``latency`` are since-boot cumulative (the
        :class:`~repro.obs.ObsLog` contract); ``window`` is the
        sliding-window view over the same state.
        """
        self.window.sample()
        cache_doc: Dict[str, Any] = {"enabled": self.cache is not None}
        if self.cache is not None:
            s = self.cache.stats
            cache_doc.update(
                hits=s.hits, misses=s.misses, bytes_read=s.bytes_read,
                bytes_written=s.bytes_written, evictions=s.evictions,
                tmp_swept=s.tmp_swept, max_bytes=self.cache.max_bytes,
                bytes=self.cache.total_bytes())
        return {
            "counters": dict(self.obs.counters),
            "latency": {
                name: {"count": h.count, "total_seconds": h.total,
                       "mean_seconds": h.mean,
                       "min_seconds": h.min if h.count else None,
                       "max_seconds": h.max}
                for name, h in sorted(self.obs.histograms.items())},
            "window": self.window.document(),
            "admission": self.admission.snapshot(),
            "batcher": self.batcher.stats.snapshot(),
            "obs": {
                "spans_retained": len(self.obs.spans),
                "max_spans": self.obs.max_spans,
                "evicted_spans": self.obs.evicted_spans,
            },
            "cache": cache_doc,
        }
