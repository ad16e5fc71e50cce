"""The /metrics Prometheus exposition and the /healthz readiness probe."""

import asyncio
import json

from repro.obs.metrics import parse_prometheus, validate_exposition
from repro.sched.ckernel import CKERNEL_ACTIVE
from repro.serve import ScheduleServer

SMALL = {"graph": {"name": "met", "weights": [3.1e6, 6.2e6, 4.0e6],
                   "edges": [[0, 1], [0, 2]]},
         "deadline_factor": 2.0, "policy": "edf"}


async def _raw(host, port, method, target, body=None):
    """One exchange; returns (status, content_type, body_text)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        writer.write((f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
                      f"Content-Length: {len(payload)}\r\n"
                      f"Connection: close\r\n\r\n").encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    content_type = ""
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-type:"):
            content_type = line.split(b":", 1)[1].strip().decode()
    return status, content_type, rest.decode()


def _serve(test_body, **server_kw):
    async def main():
        server = ScheduleServer(**server_kw)
        host, port = await server.start(port=0)
        try:
            await test_body(server, host, port)
        finally:
            await server.stop()

    asyncio.run(main())


class TestMetricsEndpoint:
    def test_fresh_server_exposition_is_valid(self, tmp_path):
        async def body(server, host, port):
            status, ctype, text = await _raw(host, port, "GET",
                                             "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert "version=0.0.4" in ctype
            assert validate_exposition(text) == []

        _serve(body, cache_dir=str(tmp_path))

    def test_counters_and_histograms_after_traffic(self, tmp_path):
        async def body(server, host, port):
            await _raw(host, port, "POST", "/v1/schedule", SMALL)
            await _raw(host, port, "POST", "/v1/schedule", SMALL)
            _, _, text = await _raw(host, port, "GET", "/metrics")
            assert validate_exposition(text) == []
            families = parse_prometheus(text)

            requests = families["repro_serve_requests_total"]["samples"]
            assert requests == [("repro_serve_requests_total", {}, 2.0)]
            warm = families["repro_serve_warm_hits_total"]["samples"]
            assert warm[0][2] == 1.0

            latency = families["repro_serve_request_seconds"]
            assert latency["type"] == "histogram"
            count = [v for m, _l, v in latency["samples"]
                     if m.endswith("_count")]
            assert count == [2.0]

        _serve(body, cache_dir=str(tmp_path))

    def test_gauges_track_cache_and_retention(self, tmp_path):
        async def body(server, host, port):
            _, _, before = await _raw(host, port, "GET", "/metrics")
            assert parse_prometheus(before)["repro_cache_entries"][
                "samples"][0][2] == 0.0
            await _raw(host, port, "POST", "/v1/schedule", SMALL)
            _, _, after = await _raw(host, port, "GET", "/metrics")
            families = parse_prometheus(after)
            assert families["repro_cache_entries"]["samples"][0][2] == 1.0
            assert families["repro_cache_bytes"]["samples"][0][2] > 0
            retained = families["repro_obs_spans_retained"]["samples"]
            assert retained[0][2] >= 1.0

        _serve(body, cache_dir=str(tmp_path))

    def test_window_gauges_present(self, tmp_path):
        async def body(server, host, port):
            await _raw(host, port, "POST", "/v1/schedule", SMALL)
            _, _, text = await _raw(host, port, "GET", "/metrics")
            families = parse_prometheus(text)
            assert "repro_window_rate_per_second" in families
            assert "repro_window_span_seconds" in families
            names = {labels.get("name") for _m, labels, _v in
                     families["repro_window_latency_seconds"]["samples"]}
            assert "serve.request" in names

        _serve(body, cache_dir=str(tmp_path))

    def test_reports_the_active_kernel(self):
        """A package that lost ``ckernel.c`` runs the Python loops;
        the gauge says which backend serves."""
        async def body(server, host, port):
            _, _, text = await _raw(host, port, "GET", "/metrics")
            gauge = parse_prometheus(text)["repro_sched_ckernel_active"]
            assert gauge["type"] == "gauge"
            assert gauge["samples"] == [
                ("repro_sched_ckernel_active", {}, float(CKERNEL_ACTIVE))]

        _serve(body, cache_dir=None)

    def test_cacheless_server_still_exposes(self):
        async def body(server, host, port):
            _, _, text = await _raw(host, port, "GET", "/metrics")
            assert validate_exposition(text) == []
            assert "repro_cache_entries" not in parse_prometheus(text)

        _serve(body, cache_dir=None)


class TestReadiness:
    def test_ready_reports_checks(self, tmp_path):
        async def body(server, host, port):
            status, _, text = await _raw(host, port, "GET", "/healthz")
            doc = json.loads(text)
            assert status == 200
            assert doc["ok"] is True
            assert doc["checks"] == {"batcher_running": True,
                                     "cache_dir_writable": True}
            assert doc["max_pending"] == 64
            assert "reason" not in doc

        _serve(body, cache_dir=str(tmp_path))

    def test_dead_batcher_is_503_with_reason(self, tmp_path):
        async def body(server, host, port):
            await server.batcher.stop()
            status, _, text = await _raw(host, port, "GET", "/healthz")
            doc = json.loads(text)
            assert status == 503
            assert doc["ok"] is False
            assert doc["checks"]["batcher_running"] is False
            assert "batcher_running" in doc["reason"]

        _serve(body, cache_dir=str(tmp_path))

    def test_unwritable_cache_dir_is_503(self, tmp_path):
        async def body(server, host, port):
            # A regular file where the cache root should be defeats the
            # mkdir-and-probe even when running as root (chmod alone
            # would not: root ignores permission bits).
            blocker = tmp_path / "blocker"
            blocker.write_text("in the way")
            server.cache.root = blocker
            status, _, text = await _raw(host, port, "GET", "/healthz")
            doc = json.loads(text)
            assert status == 503
            assert doc["checks"]["cache_dir_writable"] is False
            assert "cache_dir_writable" in doc["reason"]

        _serve(body, cache_dir=str(tmp_path / "cache"))

    def test_cacheless_server_skips_cache_check(self):
        async def body(server, host, port):
            status, _, text = await _raw(host, port, "GET", "/healthz")
            doc = json.loads(text)
            assert status == 200
            assert doc["checks"] == {"batcher_running": True}

        _serve(body, cache_dir=None)
