#!/usr/bin/env python
"""Load-test the schedule service and emit a latency/behaviour baseline.

Drives a running ``repro serve`` instance (or ``--spawn``s one on an
ephemeral port) with raw asyncio HTTP clients through four phases:

* **cold** — ``--instances`` distinct requests at ``--clients``-way
  concurrency: every one is a computed miss that warms the cache;
* **warm** — the same requests again: every one must be answered from
  the cache *without a single batcher dispatch* (asserted from the
  ``/stats`` delta);
* **dedupe** — ``--clients`` *identical* concurrent requests for a
  fresh instance: the server must coalesce them onto one computation
  (``serve.deduped`` >= clients-1, one dispatched instance);
* **churn** — a stream of fresh instances against a ``--max-bytes``
  bounded cache: afterwards the tree must measure at or under the
  bound;
* **metrics** — scrape ``GET /metrics`` before the cold phase and
  after churn: both expositions must pass
  :func:`repro.obs.metrics.validate_exposition`, and the
  ``repro_serve_requests_total`` counter must have advanced by the
  number of requests the harness sent (``--metrics-out`` saves the
  final exposition for offline checking).

Latency is reported per phase as p50/p99 milliseconds over per-request
wall clock.  Results are written as JSON (``--out``); ``--check`` turns
the behavioural assertions into the exit code, which is how the CI
serve-smoke job gates the service.

Usage:
    python tools/load_test.py --spawn --check \\
        --out serve-smoke.json
    python tools/load_test.py --url http://127.0.0.1:8642
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.metrics import parse_prometheus  # noqa: E402
from repro.obs.metrics import validate_exposition  # noqa: E402

#: Three-task explicit request graphs: big enough to exercise the full
#: six-heuristic suite, small enough that the harness measures the
#: service, not the scheduler.
BASE_WEIGHTS = [3.1e6, 6.2e6, 4.0e6]
EDGES = [[0, 1], [0, 2]]


def instance_body(i: int) -> dict:
    """The ``i``-th distinct request (weights vary, so keys do)."""
    weights = list(BASE_WEIGHTS)
    weights[2] += 1.0e4 * i
    return {"graph": {"name": f"load-{i}", "weights": weights,
                      "edges": EDGES},
            "deadline_factor": 2.0, "policy": "edf"}


# ----------------------------------------------------------------------
# Raw HTTP client
# ----------------------------------------------------------------------
async def request(host: str, port: int, method: str, target: str,
                  body: Optional[dict] = None) -> Tuple[int, dict]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        writer.write((f"{method} {target} HTTP/1.1\r\nHost: load\r\n"
                      f"Content-Length: {len(payload)}\r\n"
                      f"Connection: close\r\n\r\n").encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(rest) if rest else {}


async def request_text(host: str, port: int, target: str
                       ) -> Tuple[int, str]:
    """GET a non-JSON endpoint (``/metrics``) and return the raw body."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((f"GET {target} HTTP/1.1\r\nHost: load\r\n"
                      f"Content-Length: 0\r\n"
                      f"Connection: close\r\n\r\n").encode())
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, rest = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), rest.decode()


async def timed_schedule(host: str, port: int, body: dict,
                         latencies: List[float]) -> Tuple[int, dict]:
    t0 = time.perf_counter()
    status, doc = await request(host, port, "POST", "/v1/schedule", body)
    latencies.append(time.perf_counter() - t0)
    return status, doc


async def fan_out(host: str, port: int, bodies: List[dict],
                  clients: int, latencies: List[float]) -> List[dict]:
    """Run ``bodies`` through at most ``clients`` concurrent requests."""
    sem = asyncio.Semaphore(clients)
    docs: List[dict] = [{}] * len(bodies)

    async def one(i: int, body: dict) -> None:
        async with sem:
            status, doc = await timed_schedule(host, port, body, latencies)
            if status != 200:
                raise RuntimeError(
                    f"request {i} failed: {status} {doc}")
            docs[i] = doc

    await asyncio.gather(*[one(i, b) for i, b in enumerate(bodies)])
    return docs


def percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[idx]


def phase_stats(latencies: List[float]) -> Dict[str, Any]:
    return {"requests": len(latencies),
            "p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
            "p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
            "total_s": round(sum(latencies), 4)}


def counter_total(exposition: str, family: str) -> float:
    """Sum every sample of one family in a parsed exposition."""
    fam = parse_prometheus(exposition).get(family)
    if fam is None:
        return 0.0
    return sum(value for _name, _labels, value in fam["samples"])


# ----------------------------------------------------------------------
# The scenario
# ----------------------------------------------------------------------
async def run_load(host: str, port: int, *, instances: int, clients: int,
                   churn: int, max_bytes: Optional[int]) -> dict:
    status, _ = await request(host, port, "GET", "/healthz")
    if status != 200:
        raise RuntimeError(f"server unhealthy: {status}")

    report: Dict[str, Any] = {"phases": {}, "checks": {}}

    # Phase 0: scrape /metrics cold — the exposition must already be
    # valid before any schedule traffic exists (empty-histogram case).
    status, cold_metrics = await request_text(host, port, "/metrics")
    report["checks"]["metrics_status"] = status
    report["checks"]["metrics_cold_violations"] = \
        validate_exposition(cold_metrics) if status == 200 else \
        ["scrape failed"]
    requests_before = counter_total(cold_metrics,
                                    "repro_serve_requests_total")

    async def stats() -> dict:
        return (await request(host, port, "GET", "/stats"))[1]

    # Phase 1: cold — every request computes and warms the cache.
    cold_lat: List[float] = []
    bodies = [instance_body(i) for i in range(instances)]
    docs = await fan_out(host, port, bodies, clients, cold_lat)
    report["phases"]["cold"] = phase_stats(cold_lat)
    report["checks"]["cold_all_uncached"] = \
        all(not d["cached"] for d in docs)

    # Phase 2: warm — same instances; zero dispatches allowed.
    before = await stats()
    warm_lat: List[float] = []
    docs = await fan_out(host, port, bodies, clients, warm_lat)
    after = await stats()
    report["phases"]["warm"] = phase_stats(warm_lat)
    report["checks"]["warm_all_cached"] = all(d["cached"] for d in docs)
    dispatch_delta = (after["batcher"]["dispatches"]
                      - before["batcher"]["dispatches"])
    report["checks"]["warm_dispatches"] = dispatch_delta
    warm_hits = (after["counters"].get("serve.warm_hits", 0)
                 - before["counters"].get("serve.warm_hits", 0))
    report["checks"]["warm_hits"] = warm_hits

    # Phase 3: dedupe — identical concurrent requests, one computation.
    before = await stats()
    burst_lat: List[float] = []
    fresh = instance_body(instances + 1)
    docs = await fan_out(host, port, [fresh] * clients, clients,
                         burst_lat)
    after = await stats()
    report["phases"]["dedupe"] = phase_stats(burst_lat)
    report["checks"]["deduped"] = (
        after["counters"].get("serve.deduped", 0)
        - before["counters"].get("serve.deduped", 0))
    report["checks"]["dedupe_dispatched_instances"] = (
        after["batcher"]["dispatched_instances"]
        - before["batcher"]["dispatched_instances"])

    # Phase 4: churn — fresh instances against the size-bounded cache.
    churn_lat: List[float] = []
    bodies = [instance_body(1000 + i) for i in range(churn)]
    await fan_out(host, port, bodies, clients, churn_lat)
    final = await stats()
    report["phases"]["churn"] = phase_stats(churn_lat)
    cache = final["cache"]
    report["checks"]["cache_bytes"] = cache.get("bytes")
    report["checks"]["cache_max_bytes"] = cache.get("max_bytes",
                                                    max_bytes)
    report["checks"]["cache_evictions"] = cache.get("evictions", 0)
    report["final_stats"] = final

    # Phase 5: scrape /metrics warm — still valid, and the request
    # counter must have advanced by everything the harness sent.
    status, warm_metrics = await request_text(host, port, "/metrics")
    report["checks"]["metrics_warm_violations"] = \
        validate_exposition(warm_metrics) if status == 200 else \
        ["scrape failed"]
    sent = 2 * instances + clients + churn
    report["checks"]["metrics_requests_delta"] = (
        counter_total(warm_metrics, "repro_serve_requests_total")
        - requests_before)
    report["checks"]["metrics_requests_expected"] = sent
    report["metrics_exposition"] = warm_metrics
    return report


def verify(report: dict, *, clients: int, instances: int) -> List[str]:
    """Behavioural gate: returns human-readable failures (empty = ok)."""
    checks = report["checks"]
    failures = []
    if not checks["cold_all_uncached"]:
        failures.append("cold phase served cached answers")
    if not checks["warm_all_cached"]:
        failures.append("warm phase recomputed instead of cache-hitting")
    if checks["warm_dispatches"] != 0:
        failures.append(
            f"warm phase dispatched {checks['warm_dispatches']} "
            f"batches; warm hits must not touch a worker")
    if checks["warm_hits"] < instances:
        failures.append(
            f"warm phase produced {checks['warm_hits']} warm hits, "
            f"expected >= {instances}")
    if clients >= 2 and checks["deduped"] < 1:
        failures.append("identical concurrent requests were not deduped")
    if checks["dedupe_dispatched_instances"] > 1:
        failures.append(
            f"dedupe burst dispatched "
            f"{checks['dedupe_dispatched_instances']} instances, "
            f"expected one computation")
    max_bytes = checks.get("cache_max_bytes")
    if max_bytes is not None:
        if checks["cache_bytes"] is None:
            failures.append("server reports no cache size")
        elif checks["cache_bytes"] > max_bytes:
            failures.append(
                f"cache {checks['cache_bytes']}B exceeds the "
                f"{max_bytes}B bound after sustained churn")
        if checks["cache_evictions"] == 0:
            failures.append(
                "sustained churn never triggered an eviction — the "
                "bound was not exercised (raise --churn or lower "
                "--max-bytes)")
    if checks.get("metrics_status") != 200:
        failures.append(
            f"GET /metrics answered {checks.get('metrics_status')}")
    for phase in ("cold", "warm"):
        for violation in checks.get(f"metrics_{phase}_violations", []):
            failures.append(f"{phase} /metrics exposition: {violation}")
    delta = checks.get("metrics_requests_delta")
    expected = checks.get("metrics_requests_expected")
    if delta is not None and delta != expected:
        failures.append(
            f"repro_serve_requests_total advanced by {delta}, "
            f"expected {expected} (one per schedule request sent)")
    return failures


# ----------------------------------------------------------------------
# Spawn mode
# ----------------------------------------------------------------------
_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


def spawn_server(max_bytes: int, cache_dir: str
                 ) -> Tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", cache_dir, "--cache-max-bytes", str(max_bytes)],
        env=env, stderr=subprocess.PIPE, text=True)
    assert proc.stderr is not None
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line and proc.poll() is not None:
            raise RuntimeError("server exited before listening")
        match = _LISTEN_RE.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.kill()
    raise RuntimeError("server did not report a listen address in time")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--url", default=None,
                    help="running server, e.g. http://127.0.0.1:8642")
    ap.add_argument("--spawn", action="store_true",
                    help="boot a 'repro serve' subprocess on an "
                         "ephemeral port with a temporary cache")
    ap.add_argument("--clients", type=int, default=8,
                    help="concurrent client connections (default: 8)")
    ap.add_argument("--instances", type=int, default=24,
                    help="distinct instances in the cold/warm phases")
    ap.add_argument("--churn", type=int, default=60,
                    help="fresh instances streamed at the bounded cache")
    ap.add_argument("--max-bytes", type=int, default=120_000,
                    help="cache bound for --spawn mode (default: 120kB "
                         "— above the cold working set of ~24 entries "
                         "at ~2.6kB, below the total churn traffic, so "
                         "warm hits survive and churn must evict)")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the report JSON here")
    ap.add_argument("--metrics-out", type=Path, default=None,
                    help="write the final /metrics exposition here "
                         "(feed it to tools/validate_metrics.py)")
    ap.add_argument("--check", action="store_true",
                    help="fail (exit 1) when a behavioural check fails")
    args = ap.parse_args(argv)

    if args.spawn == (args.url is not None):
        ap.error("exactly one of --url / --spawn is required")

    proc = None
    tmp = None
    if args.spawn:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-load-")
        proc, host, port = spawn_server(args.max_bytes, tmp.name)
    else:
        match = re.match(r"https?://([^:/]+):(\d+)", args.url)
        if not match:
            ap.error(f"unparseable --url {args.url!r}")
        host, port = match.group(1), int(match.group(2))

    try:
        report = asyncio.run(run_load(
            host, port, instances=args.instances, clients=args.clients,
            churn=args.churn,
            max_bytes=args.max_bytes if args.spawn else None))
    finally:
        if proc is not None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
        if tmp is not None:
            tmp.cleanup()

    doc = {
        "description": "Latency and behaviour baseline of the repro "
                       "serve schedule service under tools/load_test.py "
                       "(cold / warm / dedupe / churn phases; see the "
                       "script docstring).",
        "command": "python tools/load_test.py --spawn --check "
                   "--out serve-smoke.json",
        "config": {"clients": args.clients, "instances": args.instances,
                   "churn": args.churn, "max_bytes": args.max_bytes},
        "phases": report["phases"],
        "checks": report["checks"],
        "counters": report["final_stats"]["counters"],
    }
    for name, stats in report["phases"].items():
        print(f"[load-test] {name}: {stats['requests']} reqs  "
              f"p50={stats['p50_ms']}ms  p99={stats['p99_ms']}ms")
    print(f"[load-test] checks: "
          f"{json.dumps(report['checks'], sort_keys=True)}")

    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"[load-test] wrote {args.out}")
    if args.metrics_out is not None:
        args.metrics_out.write_text(report["metrics_exposition"])
        print(f"[load-test] wrote {args.metrics_out}")

    failures = verify(report, clients=args.clients,
                      instances=args.instances)
    for failure in failures:
        print(f"[load-test] FAIL {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    if not failures:
        print("[load-test] all behavioural checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
