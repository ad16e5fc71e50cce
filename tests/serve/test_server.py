"""End-to-end tests of the asyncio schedule server.

Each test boots a real :class:`~repro.serve.app.ScheduleServer` on an
ephemeral port and talks raw HTTP/1.1 over a socket — the same path a
production client takes.  Async bodies run under ``asyncio.run`` (the
suite carries no async test plugin).
"""

import asyncio
import json

from repro.serve import ScheduleServer
from repro.serve.batcher import ScheduleBatcher
from repro.serve.protocol import parse_request

SMALL = {"graph": {"name": "srv", "weights": [3.1e6, 6.2e6, 4.0e6],
                   "edges": [[0, 1], [0, 2]]},
         "deadline_factor": 2.0, "policy": "edf"}


async def _request(host, port, method, target, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await _request_on(reader, writer, method, target, body,
                                 keep_alive=False)
    finally:
        writer.close()


async def _request_on(reader, writer, method, target, body=None, *,
                      keep_alive=True):
    """One HTTP exchange on an open connection; returns (status, doc)."""
    payload = json.dumps(body).encode() if body is not None else b""
    conn = "keep-alive" if keep_alive else "close"
    writer.write((f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
                  f"Content-Length: {len(payload)}\r\n"
                  f"Connection: {conn}\r\n\r\n").encode() + payload)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    doc = json.loads(await reader.readexactly(length)) if length else {}
    return status, doc


def _serve(test_body, **server_kw):
    """Boot a server on port 0, run ``test_body(server, host, port)``."""
    async def main():
        server = ScheduleServer(**server_kw)
        host, port = await server.start(port=0)
        try:
            await test_body(server, host, port)
        finally:
            await server.stop()

    asyncio.run(main())


class TestHttpSurface:
    def test_health_and_routing(self, tmp_path):
        async def body(server, host, port):
            status, doc = await _request(host, port, "GET", "/healthz")
            assert status == 200 and doc["ok"] is True
            assert all(doc["checks"].values())
            status, doc = await _request(host, port, "GET", "/nope")
            assert status == 404 and doc["error"] == "not_found"
            status, doc = await _request(host, port, "GET", "/v1/schedule")
            assert status == 405
            status, doc = await _request(host, port, "POST",
                                         "/v1/schedule", {"bad": 1})
            assert status == 400 and doc["error"] == "bad_request"

        _serve(body, cache_dir=str(tmp_path))

    def test_keep_alive_connection_reuse(self, tmp_path):
        async def body(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for _ in range(3):
                    status, doc = await _request_on(
                        reader, writer, "GET", "/healthz")
                    assert status == 200 and doc["ok"] is True
            finally:
                writer.close()

        _serve(body, cache_dir=str(tmp_path))

    def test_stats_document_shape(self, tmp_path):
        async def body(server, host, port):
            status, doc = await _request(host, port, "GET", "/stats")
            assert status == 200
            assert set(doc) == {"counters", "latency", "admission",
                                "batcher", "cache", "window", "obs"}
            assert doc["cache"]["enabled"] is True
            assert doc["admission"]["max_pending"] == 64

        _serve(body, cache_dir=str(tmp_path))


class TestScheduling:
    def test_cold_then_warm(self, tmp_path):
        async def body(server, host, port):
            s1, d1 = await _request(host, port, "POST", "/v1/schedule",
                                    SMALL)
            assert s1 == 200 and d1["cached"] is False
            assert len(d1["results"]) == 6  # one per paper heuristic
            dispatches = server.batcher.stats.dispatches

            s2, d2 = await _request(host, port, "POST", "/v1/schedule",
                                    SMALL)
            assert s2 == 200 and d2["cached"] is True
            assert d2["key"] == d1["key"]
            assert d2["results"] == d1["results"]
            # The warm hit never reached the batcher.
            assert server.batcher.stats.dispatches == dispatches
            assert server.obs.counters["serve.warm_hits"] == 1

        _serve(body, cache_dir=str(tmp_path))

    def test_warm_hit_equals_cache_payload(self, tmp_path, platform):
        """A served answer and the cache entry are interchangeable."""
        async def body(server, host, port):
            _, cold = await _request(host, port, "POST", "/v1/schedule",
                                     SMALL)
            request = parse_request(json.dumps(SMALL).encode(), platform)
            assert server.cache.get(request.key) == cold["results"]

        _serve(body, cache_dir=str(tmp_path))

    def test_identical_concurrent_requests_dedupe(self, tmp_path):
        async def body(server, host, port):
            pairs = await asyncio.gather(*[
                _request(host, port, "POST", "/v1/schedule", SMALL)
                for _ in range(4)
            ])
            assert all(status == 200 for status, _ in pairs)
            docs = [doc for _, doc in pairs]
            assert all(doc["results"] == docs[0]["results"]
                       for doc in docs)
            # One computation; the other three piggybacked.
            assert server.batcher.stats.dispatched_instances == 1
            assert server.batcher.stats.deduped == 3

        _serve(body, cache_dir=str(tmp_path), window_seconds=0.01)

    def test_distinct_requests_coalesce_into_one_dispatch(self, tmp_path):
        async def body(server, host, port):
            bodies = [dict(SMALL, deadline_factor=2.0 + i / 4)
                      for i in range(3)]
            pairs = await asyncio.gather(*[
                _request(host, port, "POST", "/v1/schedule", b)
                for b in bodies
            ])
            assert all(status == 200 for status, _ in pairs)
            assert server.batcher.stats.dispatched_instances == 3
            # The linger window folded the burst into one batch.
            assert server.batcher.stats.dispatches == 1
            assert server.batcher.stats.max_batch_seen == 3

        _serve(body, cache_dir=str(tmp_path), window_seconds=0.05)

    def test_infeasible_is_422_and_isolated(self, tmp_path):
        """An infeasible co-batched request fails alone — its batch
        mates still succeed."""
        async def body(server, host, port):
            hopeless = dict(SMALL, deadline_factor=0.25)  # < critical path
            pairs = await asyncio.gather(
                _request(host, port, "POST", "/v1/schedule", SMALL),
                _request(host, port, "POST", "/v1/schedule", hopeless),
            )
            by_status = {status: doc for status, doc in pairs}
            assert set(by_status) == {200, 422}
            assert by_status[422]["error"] == "infeasible"
            assert len(by_status[200]["results"]) == 6
            assert server.batcher.stats.failed_instances == 1

        _serve(body, cache_dir=str(tmp_path), window_seconds=0.05)

    def test_infinite_deadline_is_400_and_computes_nothing(self, tmp_path):
        async def body(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                payload = (b'{"graph": {"bundled": "robot"}, '
                           b'"deadline_cycles": Infinity}')
                writer.write(
                    (f"POST /v1/schedule HTTP/1.1\r\nHost: t\r\n"
                     f"Content-Length: {len(payload)}\r\n"
                     f"Connection: close\r\n\r\n").encode() + payload)
                await writer.drain()
                raw = await reader.read()
            finally:
                writer.close()
            head, _, doc = raw.partition(b"\r\n\r\n")
            assert int(head.split(b" ", 2)[1]) == 400
            doc = json.loads(doc)
            assert doc["error"] == "bad_request"
            assert "deadline_cycles" in doc["detail"]
            assert server.batcher.stats.dispatches == 0
            assert not list(tmp_path.rglob("*.json"))

        _serve(body, cache_dir=str(tmp_path))

    def test_cacheless_server_computes_every_time(self, tmp_path):
        async def body(server, host, port):
            for want_dispatches in (1, 2):
                status, doc = await _request(host, port, "POST",
                                             "/v1/schedule", SMALL)
                assert status == 200 and doc["cached"] is False
                assert server.batcher.stats.dispatches == want_dispatches

        _serve(body, cache_dir=None)


class TestAdmission:
    def test_zero_window_sheds_everything(self, tmp_path):
        async def body(server, host, port):
            status, doc = await _request(host, port, "POST",
                                         "/v1/schedule", SMALL)
            assert status == 429 and doc["error"] == "overloaded"
            assert server.admission.shed == 1
            # Shedding is request-scoped: /stats still answers.
            status, _ = await _request(host, port, "GET", "/stats")
            assert status == 200

        _serve(body, cache_dir=str(tmp_path), max_pending=0)

    def test_served_requests_release_their_slot(self, tmp_path):
        async def body(server, host, port):
            for _ in range(3):
                status, _ = await _request(host, port, "POST",
                                           "/v1/schedule", SMALL)
                assert status == 200
            assert server.admission.pending == 0
            assert server.admission.shed == 0
            assert server.admission.admitted == 3

        _serve(body, cache_dir=str(tmp_path), max_pending=1)


class TestBatcherUnit:
    def test_mixed_policy_burst_splits_dispatches(self, platform):
        """Only same-policy requests share a paper_suite_batch sweep."""
        from repro.exec.runner import ExecOptions

        async def main():
            batcher = ScheduleBatcher(
                ExecOptions(jobs=1, use_cache=False),
                platform=platform, window_seconds=0.05)
            await batcher.start()
            try:
                reqs = [
                    parse_request(json.dumps(
                        dict(SMALL, policy=policy)).encode(), platform)
                    for policy in ("edf", "hlfet", "edf")
                ]
                outs = await asyncio.gather(
                    *[batcher.submit(r) for r in reqs])
            finally:
                await batcher.stop()
            results = [out for out, _ in outs]
            deduped = [flag for _, flag in outs]
            assert all(isinstance(r, list) for r in results)
            assert results[0] == results[2]  # same key → same payload
            assert deduped == [False, False, True]
            # Two policies → two dispatches, never one mixed sweep.
            assert batcher.stats.dispatches == 2
            assert batcher.stats.dispatched_instances == 2

        asyncio.run(main())

    def test_stop_fails_queued_flights(self, platform):
        from repro.exec.runner import ExecOptions

        async def main():
            batcher = ScheduleBatcher(
                ExecOptions(jobs=1, use_cache=False),
                platform=platform, window_seconds=30.0)  # never fires
            await batcher.start()
            request = parse_request(json.dumps(SMALL).encode(), platform)
            waiter = asyncio.ensure_future(batcher.submit(request))
            await asyncio.sleep(0.02)
            await batcher.stop()
            outcome, deduped = await waiter
            assert isinstance(outcome, RuntimeError)

        asyncio.run(main())
