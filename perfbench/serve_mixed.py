"""The ``serve_mixed`` workload: a spawned ``repro serve`` under load.

The server runs with a size-bounded cache and ``jobs=1``.  One asyncio
client drives it over :func:`_connections` keep-alive connections with an
open loop: requests are due on a seeded Poisson schedule whatever the
server does, and each is timed from when it was due.  A request that
waits for a free connection waits in the client's queue, and that wait
counts.  ``late`` is how far the generator itself fell behind the
schedule before handing a request to the queue; a phase whose
generator falls behind :data:`LATE_BOUND_MS` (p99) is invalid, not slow:
it is offered again, and a run with a phase invalid
:data:`PHASE_TRIES` times is invalid.

Traffic is explicit STG graphs of 50 or 100 tasks, of three kinds:

* hot-set hits — a fixed hot set, prewarmed before timing;
* fresh misses — never-seen graphs, which churn the bounded cache into
  evictions;
* identical pairs — two requests for one fresh graph due at the same
  instant, which the batcher dedupes (or, if the first has finished,
  the cache answers).

The shares of the mixed phases (:data:`P_HOT`, :data:`P_FRESH`,
:data:`P_PAIR`) are an assumption, not the measured traffic of a
deployed service, so the two gated timings come from phases of a single
kind and do not depend on them.  Phases of one run (``S`` =
``--seconds``):

1. hits: hot-set requests only, :data:`HIT_RATE_RPS` offered for
   ``HIT_SHARE * S`` — ``p50_ms``, the hits' median, the warm path the
   service exists for;
2. main: the mix at :data:`RATE_RPS` for ``MAIN_SHARE * S`` — the
   reported latencies of all requests, of hits and of misses, the
   ``/stats`` deltas and the mix check;
3. ladder: the mix at each rung of :data:`LADDER` for
   ``RUNG_SHARE * S`` until one fails the :data:`LATENCY_LIMIT_MS` p99
   limit or lets the backlog grow — the reported ``max_rate_rps``;
4. capacity: fresh misses only, closed loop, one request in flight per
   connection, for ``CAPACITY_SHARE * S`` — ``instances_per_s``, the
   rate at which the service computes new instances.

Both gated timings are scaled to the reference host's speed
(``common.HostScale``): phases 1 and 4 run as :data:`SLICES` slices
with the reference loop read between them, and each gated figure is the
median of its slices' scaled values.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import checks
import common
import instances as inputs
import spec
from common import metric, percentile, report
from tracing import format_table, layer_values, self_times

#: Offered rate of the main phase (requests/s): low enough that queueing
#: behind misses does not amplify the host's speed swings.
RATE_RPS = 25.0
#: Offered rate of the hit phase: hits take a few ms, so twice the main
#: rate still leaves the connections idle most of the time and doubles
#: the sample behind the hits' median.
HIT_RATE_RPS = 50.0
#: p99 limit of a ladder rung, from due time.
LATENCY_LIMIT_MS = 100.0
#: Ladder rungs above the main rate (requests/s).
LADDER = (75.0, 150.0, 225.0)
HIT_SHARE, MAIN_SHARE, RUNG_SHARE, CAPACITY_SHARE = 0.25, 0.25, 0.05, 0.3
#: Slices of the hit and capacity phases: the host's speed is read
#: between slices, which are short enough that it seldom drifts within
#: one.
SLICES = 5
#: Closed-loop miss rate the fresh inputs are sized for.
CAPACITY_CEILING_RPS = 150.0
#: Generator lateness bound (p99, ms); beyond it a phase is invalid.
LATE_BOUND_MS = 20.0
#: Tries of an invalid open-loop phase before the run is invalid.
PHASE_TRIES = 3
#: Per-event probabilities of the mixed phases: hot-set hit, fresh miss,
#: identical pair.  Assumed, not measured: no gated metric depends on
#: them.
P_HOT, P_FRESH, P_PAIR = 0.80, 0.14, 0.06
HOT_SET = 8
CACHE_MAX_BYTES = 64 * 1024
#: Share of the requests by which the measured mix may miss the
#: configured one (a hot entry evicted by chance, say).
MIX_SLACK = 0.01
REQUEST_TIMEOUT_S = 10.0
#: Computed answers re-evaluated in-process after the run.
SAMPLE_CHECKS = 8
#: Server set-ups per run; setup_s is their median.
SETUPS = 3


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    hot: List[Tuple[bytes, str]]
    fresh: List[Tuple[bytes, str]]
    graphs: Dict[str, Tuple[Any, float]]  # key -> (graph, deadline)
    gen_s: float
    gen_scaled: float  # gen_s on the reference host


def _connections() -> int:
    """The CPUs this process may use, and at least two, so that the two
    requests of a pair can be in flight together and be deduped."""
    return max(2, len(os.sched_getaffinity(0)))


def _fresh_needed(seconds: float) -> int:
    """Fresh graphs one run can consume, with margin.

    The mixed phases offer a known number of requests; the closed loop
    of misses is sized for :data:`CAPACITY_CEILING_RPS` and ends early
    if it runs out.
    """
    per_request = (P_FRESH + P_PAIR) / (1.0 + P_PAIR)
    offered = RATE_RPS * MAIN_SHARE * seconds + sum(
        r * RUNG_SHARE * seconds for r in LADDER)
    closed = CAPACITY_CEILING_RPS * CAPACITY_SHARE * seconds
    return int(1.2 * per_request * offered + closed) + 32


def make_inputs(seed: int, seconds: float) -> Inputs:
    """Bodies and client-side keys; all generation happens here."""
    scale = common.HostScale()
    t0 = time.perf_counter()
    from repro.core.platform import default_platform
    from repro.exec.cache import instance_digest
    from repro.graphs.analysis import critical_path_length

    platform = default_platform()
    graphs: Dict[str, Tuple[Any, float]] = {}

    def encode(gs: List[Any]) -> List[Tuple[bytes, str]]:
        out = []
        for g in gs:
            deadline = 2.0 * critical_path_length(g)
            key = instance_digest(g, deadline, platform, "edf")
            graphs[key] = (g, deadline)
            out.append((json.dumps(inputs.request_body(g)).encode(), key))
        return out

    hot = encode(inputs.serve_graphs(seed, HOT_SET, 0))
    fresh = encode(inputs.serve_graphs(seed, _fresh_needed(seconds),
                                       HOT_SET))
    gen_s = time.perf_counter() - t0
    return Inputs(hot, fresh, graphs, gen_s, gen_s * scale.factor())


@dataclass
class Event:
    due: float
    body: bytes
    key: str
    kind: str  # "hot" | "fresh" | "pair"
    late: float = 0.0
    latency: float = float("nan")
    cached: bool = False
    problem: Optional[str] = None


class Traffic:
    """Seeded event source; consumes fresh graphs in order."""

    def __init__(self, inp: Inputs, seed: int, phase: str) -> None:
        self.inp = inp
        self.rng = random.Random(f"serve-{seed}-{phase}")
        self.next_fresh = 0

    def take_fresh(self) -> Tuple[bytes, str]:
        body_key = self.inp.fresh[self.next_fresh]
        self.next_fresh += 1
        return body_key

    def events(self, rate: float, seconds: float,
               hits_only: bool = False) -> List[Event]:
        """Poisson arrivals offering ``rate`` requests/s for ``seconds``.

        The mix of the three kinds, or hot-set requests only.
        """
        draw = self.draw_hot if hits_only else self.draw
        # A pair is two requests.
        event_rate = rate if hits_only else rate / (1.0 + P_PAIR)
        out: List[Event] = []
        t = 0.0
        while True:
            t += self.rng.expovariate(event_rate)
            if t >= seconds:
                return out
            out.extend(draw(t))

    def draw_hot(self, due: float) -> List[Event]:
        body, key = self.inp.hot[self.rng.randrange(len(self.inp.hot))]
        return [Event(due, body, key, "hot")]

    def draw(self, due: float) -> List[Event]:
        u = self.rng.random()
        if u < P_HOT:
            return self.draw_hot(due)
        body, key = self.take_fresh()
        if u < P_HOT + P_FRESH:
            return [Event(due, body, key, "fresh")]
        return [Event(due, body, key, "pair"),
                Event(due, body, key, "pair")]


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, target: str,
                      body: bytes = b"") -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        assert self.reader is not None
        self.writer.write(
            f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        try:
            head = await self.reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.decode("latin-1").split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            payload = await self.reader.readexactly(length)
        except BaseException:
            self.close()
            raise
        return int(head.split(b" ", 2)[1]), payload

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


class Answers:
    """What each key was answered when it was computed.

    Responses to one pair can arrive in either order, so a hit whose
    computed answer has not arrived yet waits for :meth:`settle`.
    """

    def __init__(self) -> None:
        self.computed: Dict[str, list] = {}
        self._early: List[Tuple[Event, list]] = []

    def check(self, ev: Event, status: int, payload: bytes) -> None:
        if status != 200:
            ev.problem = f"HTTP {status}"
            return
        doc = json.loads(payload)
        ev.cached = doc["cached"]
        if doc["key"] != ev.key:
            ev.problem = "response key differs from the client digest"
            return
        results = doc["results"]
        seen = self.computed.get(ev.key)
        if seen is None:
            if ev.cached:
                self._early.append((ev, results))
            else:
                self.computed[ev.key] = results
        elif results != seen:
            ev.problem = "answer differs from the computed answer"

    def settle(self) -> None:
        """Check the hits that arrived before their computed answer."""
        for ev, results in self._early:
            seen = self.computed.get(ev.key)
            if seen is None:
                ev.problem = "cache hit for a key never computed"
            elif results != seen:
                ev.problem = "answer differs from the computed answer"
        self._early.clear()


async def _send(conn: Connection, ev: Event, answers: Answers,
                start: float) -> None:
    try:
        status, payload = await asyncio.wait_for(
            conn.request("POST", "/v1/schedule", ev.body),
            REQUEST_TIMEOUT_S)
        ev.latency = time.perf_counter() - (start + ev.due)
        answers.check(ev, status, payload)
    except asyncio.TimeoutError:
        ev.problem = "timeout"
    except (OSError, ValueError, KeyError,
            asyncio.IncompleteReadError) as exc:
        ev.problem = f"{type(exc).__name__}: {exc}"


async def open_loop(conns: List[Connection], events: List[Event],
                    answers: Answers) -> Dict[str, float]:
    """Offer ``events`` on schedule; returns backlog facts."""
    queue: "asyncio.Queue[Optional[Event]]" = asyncio.Queue()
    start = time.perf_counter() + 0.005
    tail = {"max_queue": 0}

    async def producer() -> None:
        for ev in events:
            delay = start + ev.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            ev.late = max(0.0, time.perf_counter() - (start + ev.due))
            queue.put_nowait(ev)
            tail["max_queue"] = max(tail["max_queue"], queue.qsize())
        tail["end_queue"] = queue.qsize()
        for _ in conns:
            queue.put_nowait(None)

    async def worker(conn: Connection) -> None:
        while True:
            ev = await queue.get()
            if ev is None:
                return
            await _send(conn, ev, answers, start)

    await asyncio.gather(producer(), *(worker(c) for c in conns))
    return tail


async def closed_loop(conns: List[Connection], traffic: Traffic,
                      seconds: float, answers: Answers
                      ) -> Tuple[int, float, List[Event]]:
    """Fresh misses back to back per connection; (completed, wall, events).

    Every answer must be computed: a fresh graph the cache answers is a
    failure.
    """
    done: List[Event] = []
    start = time.perf_counter()
    end = start + seconds

    last = start

    async def worker(conn: Connection) -> None:
        nonlocal last
        while time.perf_counter() < end:
            try:
                body, key = traffic.take_fresh()
            except IndexError:  # out of fresh graphs: stop early
                return
            ev = Event(time.perf_counter() - start, body, key, "fresh")
            await _send(conn, ev, answers, start)
            if ev.problem is None and ev.cached:
                ev.problem = "fresh graph answered from the cache"
            done.append(ev)
            last = time.perf_counter()

    await asyncio.gather(*(worker(c) for c in conns))
    wall = last - start
    return sum(1 for ev in done if ev.problem is None), wall, done


async def get_json(conn: Connection, target: str) -> Dict[str, Any]:
    status, payload = await conn.request("GET", target)
    if status != 200:
        raise RuntimeError(f"GET {target}: HTTP {status}")
    return json.loads(payload)


async def get_text(conn: Connection, target: str) -> str:
    status, payload = await conn.request("GET", target)
    if status != 200:
        raise RuntimeError(f"GET {target}: HTTP {status}")
    return payload.decode()


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """A spawned server: untraced ``repro serve`` or the traced launcher."""

    def __init__(self, traced: bool) -> None:
        self.root = tempfile.mkdtemp(prefix="serve-", dir=common.WORK / "tmp")
        self.spans_out = os.path.join(self.root, "spans.json")
        self.log_path = os.path.join(self.root, "server.log")
        serve_args = ["--host", "127.0.0.1", "--port", "0",
                      "--cache-dir", os.path.join(self.root, "cache"),
                      "--cache-max-bytes", str(CACHE_MAX_BYTES),
                      "--jobs", "1"]
        if traced:
            cmd = [sys.executable, str(common.HERE / "serve_launcher.py"),
                   self.spans_out, *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=self.log, cwd=common.ROOT)
        self.port = 0

    async def ready(self) -> None:
        """Wait for the listening line, then for ``/healthz`` = 200."""
        deadline = time.perf_counter() + 60
        while not self.port:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("server did not start:\n"
                                   + open(self.log_path).read()[-2000:])
            for line in open(self.log_path):
                if "listening on http://" in line:
                    self.port = int(line.split("http://", 1)[1]
                                    .split()[0].rsplit(":", 1)[1])
            await asyncio.sleep(0.005)
        conn = Connection("127.0.0.1", self.port)
        try:
            while True:
                try:
                    status, _ = await conn.request("GET", "/healthz")
                    if status == 200:
                        return
                except OSError:
                    conn.close()
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
                await asyncio.sleep(0.005)
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the server's own shutdown path), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


async def _prewarm(server: Server, inp: Inputs, answers: Answers) -> None:
    conns = [Connection("127.0.0.1", server.port)
             for _ in range(_connections())]
    try:
        events = [Event(0.0, body, key, "hot") for body, key in inp.hot]
        await open_loop(conns, events, answers)
    finally:
        for c in conns:
            c.close()
    bad = [ev.problem for ev in events if ev.problem or ev.cached]
    if bad:
        raise RuntimeError(f"prewarm failed: {bad[:3]}")


async def start_server(inp: Inputs, traced: bool
                       ) -> Tuple[Server, Answers, float]:
    """Spawn, wait for health, prewarm; returns the wall seconds of it."""
    t0 = time.perf_counter()
    server = Server(traced)
    try:
        await server.ready()
        answers = Answers()
        await _prewarm(server, inp, answers)
    except BaseException:
        server.stop()
        server.cleanup()
        raise
    return server, answers, time.perf_counter() - t0


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
_STATS_KEYS = ("serve.requests", "serve.warm_hits", "serve.deduped",
               "serve.dispatches", "serve.dispatched_instances",
               "serve.shed")


def _stats_counts(doc: Dict[str, Any]) -> Dict[str, float]:
    c = doc["counters"]
    out = {k: float(c.get(k, 0)) for k in _STATS_KEYS}
    for k in ("hits", "misses", "evictions", "bytes_read", "bytes_written"):
        out["cache." + k] = float(doc["cache"].get(k, 0))
    return out


def _delta(a: Dict[str, float], b: Dict[str, float]) -> Dict[str, float]:
    return {k: b[k] - a[k] for k in b}


def _server_p50_ms(exposition: str) -> float:
    from repro.obs.metrics import parse_prometheus

    for family in parse_prometheus(exposition).values():
        for name, labels, value in family["samples"]:
            if (name.endswith("_window_latency_seconds")
                    and labels.get("name") == "serve.request"
                    and labels.get("quantile") == "0.5"):
                return 1e3 * value
    return 0.0


@dataclass
class Phase:
    events: List[Event]
    stats: Dict[str, float] = field(default_factory=dict)
    scrapes: List[str] = field(default_factory=list)
    backlog: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> List[Event]:
        return [ev for ev in self.events if ev.problem is None]

    def latencies_ms(self, pick=lambda ev: True) -> List[float]:
        return [1e3 * ev.latency for ev in self.ok if pick(ev)]


async def fixed_rate(server: Server, events: List[Event],
                     answers: Answers) -> Phase:
    """An open-loop phase, bracketed by /stats and /metrics scrapes."""
    conns = [Connection("127.0.0.1", server.port)
             for _ in range(_connections())]
    side = Connection("127.0.0.1", server.port)
    try:
        phase = Phase(events)
        before = _stats_counts(await get_json(side, "/stats"))
        phase.scrapes.append(await get_text(side, "/metrics"))
        phase.backlog = await open_loop(conns, phase.events, answers)
        phase.scrapes.append(await get_text(side, "/metrics"))
        phase.stats = _delta(before,
                             _stats_counts(await get_json(side, "/stats")))
        return phase
    finally:
        for c in conns + [side]:
            c.close()


def _mix_problems(phase: Phase) -> List[str]:
    """The measured hit and dedupe shares must match the configured mix."""
    n = len(phase.events)
    kinds = {k: sum(1 for ev in phase.events if ev.kind == k)
             for k in ("hot", "fresh", "pair")}
    s = phase.stats
    out = []
    if s["serve.requests"] != n:
        out.append(f"server counted {s['serve.requests']:.0f} requests, "
                   f"client sent {n}")
    # Every hot request is a hit; the second of a pair is deduped onto
    # the first, or answered by the cache once the first has finished.
    second = kinds["pair"] / 2
    slack = MIX_SLACK * n
    hits, dedup = s["serve.warm_hits"], s["serve.deduped"]
    if not kinds["hot"] - slack <= hits <= kinds["hot"] + second:
        out.append(f"warm hits {hits:.0f} outside [{kinds['hot']}, "
                   f"{kinds['hot'] + second:.0f}]")
    if abs(hits + dedup - (kinds["hot"] + second)) > slack:
        out.append(f"hits + deduped = {hits + dedup:.0f}, configured mix "
                   f"gives {kinds['hot'] + second:.0f}")
    if kinds["pair"] and dedup < 0.5 * second:
        out.append(f"only {dedup:.0f} of {second:.0f} pairs deduped")
    # More bytes written than the bound holds must have evicted.
    if s["cache.bytes_written"] > CACHE_MAX_BYTES \
            and s["cache.evictions"] <= 0:
        out.append("fresh misses overflowed the cache without evictions")
    if s["serve.shed"]:
        out.append(f"{s['serve.shed']:.0f} requests shed")
    return out


def _hit_problems(phase: Phase) -> List[str]:
    """Every request of the hit phase must be a warm hit."""
    n, s = len(phase.events), phase.stats
    out = [f"hit phase: {ev.key[:12]} not answered from the cache"
           for ev in phase.ok if not ev.cached]
    if s["serve.requests"] != n or s["serve.warm_hits"] != n:
        out.append(f"hit phase: {n} requests sent, server counted "
                   f"{s['serve.requests']:.0f} requests and "
                   f"{s['serve.warm_hits']:.0f} warm hits")
    return out


def _exposition_problems(phase: Phase) -> List[str]:
    from repro.obs.metrics import validate_exposition

    return [f"/metrics scrape {i}: {p}"
            for i, text in enumerate(phase.scrapes)
            for p in validate_exposition(text)]


async def ladder(server: Server, traffic: Traffic, seconds: float,
                 answers: Answers, main_ok: bool) -> Tuple[float, list]:
    """Highest rung meeting the p99 limit without a growing backlog."""
    best = RATE_RPS if main_ok else 0.0
    rungs = []
    if not main_ok:
        return best, rungs
    for rate in LADDER:
        conns = [Connection("127.0.0.1", server.port)
                 for _ in range(_connections())]
        try:
            events = traffic.events(rate, seconds)
            backlog = await open_loop(conns, events, answers)
        finally:
            for c in conns:
                c.close()
        lat = [1e3 * ev.latency for ev in events if ev.problem is None]
        failed = sum(1 for ev in events if ev.problem is not None)
        p99 = percentile(lat, 99) if lat else float("inf")
        grows = backlog["end_queue"] > max(4, 0.05 * len(events))
        passed = not failed and p99 <= LATENCY_LIMIT_MS and not grows
        rungs.append((rate, len(events), p99, backlog["end_queue"], passed,
                      events))
        if not passed:
            break
        best = rate
    return best, rungs


def _classify(phase: Phase) -> Dict[str, List[float]]:
    return {
        "all": phase.latencies_ms(),
        "hit": phase.latencies_ms(lambda ev: ev.cached),
        "miss": phase.latencies_ms(lambda ev: not ev.cached),
        "late": [1e3 * ev.late for ev in phase.events],
    }


def _sample_check(answers: Answers, inp: Inputs, seed: int) -> List[str]:
    """Computed answers vs in-process evaluate_suite_instances."""
    from repro.exec.cache import summarize_results
    from repro.exec.runner import ExecOptions, evaluate_suite_instances

    problems = []
    for key, payload in answers.computed.items():
        for p in checks.ordering_failures(payload):
            problems.append(f"{key[:12]}: {p}")
    keys = sorted(answers.computed)
    rng = random.Random(f"serve-sample-{seed}")
    sample = rng.sample(keys, min(SAMPLE_CHECKS, len(keys)))
    got = evaluate_suite_instances([inp.graphs[k] for k in sample],
                                   options=ExecOptions(use_cache=False))
    for key, res in zip(sample, got):
        if summarize_results(res) != answers.computed[key]:
            problems.append(f"{key[:12]}: served answer differs from "
                            f"in-process evaluation")
    return problems


def _fmt(values: List[float], name: str) -> str:
    if not values:
        return f"{name}: no samples"
    return (f"{name}: p50 {percentile(values, 50):.2f} ms, p99 "
            f"{percentile(values, 99):.2f} ms (n={len(values)})")


async def _timely(server: Server, offer: Callable[[], List[Event]],
                  answers: Answers, check: Callable[[Phase], List[str]],
                  problems: List[str], spent: List[Event]
                  ) -> Tuple[Phase, float, float]:
    """An open-loop phase whose generator kept up with its schedule.

    A try whose p99 lateness exceeds :data:`LATE_BOUND_MS` measured the
    client's host, not the server, so it is invalid: it is set aside and
    the phase is offered again with new draws, :data:`PHASE_TRIES` times
    at most; then the run is invalid.  Every try's responses are
    checked (``check`` into ``problems``, the events into ``spent``).
    Returns the valid phase, the host factor read around it and its p99
    lateness in ms.
    """
    for _ in range(PHASE_TRIES):
        scale = common.HostScale()
        phase = await fixed_rate(server, offer(), answers)
        factor = scale.factor()
        problems += check(phase)
        late_p99 = percentile([1e3 * ev.late for ev in phase.events], 99)
        if late_p99 <= LATE_BOUND_MS:
            return phase, factor, late_p99
        spent += phase.events
        report(f"  load generator late by {late_p99:.1f} ms at p99 (bound "
               f"{LATE_BOUND_MS:g} ms): invalid phase, offered again")
    raise RuntimeError(f"invalid run: load generator late past "
                       f"{LATE_BOUND_MS:g} ms at p99 in {PHASE_TRIES} tries "
                       f"of one phase")


async def _run(seed: int, seconds: float) -> Tuple[bool, int, int, Dict]:
    inp = make_inputs(seed, seconds)
    samples = []
    server: Optional[Server] = None
    for i in range(SETUPS):
        scale = common.HostScale()
        server, answers, start_s = await start_server(inp, traced=False)
        samples.append((inp.gen_s + start_s,
                        inp.gen_scaled + start_s * scale.factor()))
        if i < SETUPS - 1:
            server.stop()
            server.cleanup()
    assert server is not None
    problems: List[str] = []
    spent: List[Event] = []  # events of invalid (late) tries
    try:
        traffic = Traffic(inp, seed, "run")
        hit_slices = []  # (phase, host factor)
        for _ in range(SLICES):
            hits, factor, _ = await _timely(
                server, lambda: traffic.events(
                    HIT_RATE_RPS, HIT_SHARE * seconds / SLICES,
                    hits_only=True),
                answers, lambda ph: _hit_problems(ph)
                + _exposition_problems(ph), problems, spent)
            hit_slices.append((hits, factor))
        phase, _, late_p99 = await _timely(
            server, lambda: traffic.events(RATE_RPS, MAIN_SHARE * seconds),
            answers, lambda ph: _mix_problems(ph)
            + _exposition_problems(ph), problems, spent)
        lat = _classify(phase)
        main_failed = [ev for ev in phase.events if ev.problem]
        best, rungs = await ladder(server, traffic, RUNG_SHARE * seconds,
                                   answers, not main_failed and
                                   percentile(lat["all"], 99)
                                   <= LATENCY_LIMIT_MS)
        cap_slices = []  # (completed, wall, host factor)
        cap_events: List[Event] = []
        for _ in range(SLICES):
            conns = [Connection("127.0.0.1", server.port)
                     for _ in range(_connections())]
            scale = common.HostScale()
            try:
                completed, wall, done = await closed_loop(
                    conns, traffic, CAPACITY_SHARE * seconds / SLICES,
                    answers)
            finally:
                for c in conns:
                    c.close()
            factor = scale.factor()
            cap_events += done
            if completed:  # none once the fresh graphs have run out
                cap_slices.append((completed, wall, factor))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
        server.cleanup()
    answers.settle()
    hit_events = [ev for h, _ in hit_slices for ev in h.events]
    all_events = hit_events + phase.events + cap_events + spent + [
        ev for r in rungs for ev in r[5]]
    failed_events = [ev for ev in all_events if ev.problem]
    problems += _sample_check(answers, inp, seed)
    attempted = len(all_events) + len(answers.computed)
    failed = len(failed_events) + len(problems)

    hit_p50s = [percentile(h.latencies_ms(), 50) for h, _ in hit_slices]
    p50_ms = common.median([p * f for p, (_, f) in zip(hit_p50s,
                                                       hit_slices)])
    report(f"serve_mixed: {_connections()} keep-alive connections; hit "
           f"phase: {len(hit_events)} hot-set requests offered at "
           f"{HIT_RATE_RPS:g} rps over {HIT_SHARE * seconds:.1f} s in "
           f"{SLICES} slices, open loop")
    report("  " + _fmt([1e3 * ev.latency for ev in hit_events
                        if ev.problem is None], "hit (from due time, wall)"))
    report(f"  p50_ms = {p50_ms:.3f} ms (median of the slices' host-scaled "
           f"p50s; wall p50 / factor: " + ", ".join(
               f"{p:.2f}/{f:.3f}" for p, (_, f) in zip(hit_p50s, hit_slices))
           + ")")
    s = phase.stats
    n = len(phase.events)
    report(f"main phase: {n} requests of the assumed mix offered at "
           f"{RATE_RPS:g} rps over {MAIN_SHARE * seconds:.1f} s, open loop")
    report("  " + _fmt(lat["all"], "all (from due time)"))
    report("  " + _fmt(lat["hit"], "hit"))
    report("  " + _fmt(lat["miss"], "miss (incl. deduped)"))
    report(f"  loadgen.late_p99_ms = {late_p99:.3f} ms (bound "
           f"{LATE_BOUND_MS:g}); backlog max {phase.backlog['max_queue']}")
    report(f"  /stats deltas: warm_hits {s['serve.warm_hits']:.0f}, "
           f"deduped {s['serve.deduped']:.0f}, dispatches "
           f"{s['serve.dispatches']:.0f}, dispatched_instances "
           f"{s['serve.dispatched_instances']:.0f}, cache hits "
           f"{s['cache.hits']:.0f} / misses {s['cache.misses']:.0f} / "
           f"evictions {s['cache.evictions']:.0f}, shed "
           f"{s['serve.shed']:.0f}")
    report(f"  hit share {s['serve.warm_hits'] / n:.3f}, dedupe share "
           f"{s['serve.deduped'] / n:.3f} (configured events: hot "
           f"{P_HOT}, fresh {P_FRESH}, pair {P_PAIR})")
    for rate, count, p99, backlog, passed, _ in rungs:
        verdict = "pass" if passed else "over the limit"
        report(f"  ladder {rate:g} rps: n={count}, p99 {p99:.1f} ms, "
               f"end backlog {backlog}: {verdict}")
    report(f"  max_rate_rps = {best:g} (limit p99 <= "
           f"{LATENCY_LIMIT_MS:g} ms)")
    capacity = common.median([n / (w * f) for n, w, f in cap_slices])
    completed = sum(n for n, _, _ in cap_slices)
    wall = sum(w for _, w, _ in cap_slices)
    report(f"capacity phase: instances_per_s = {capacity:.2f} 1/s (median "
           f"of {SLICES} host-scaled slices; closed loop of fresh misses, "
           f"{completed} requests in {wall:.2f} s, wall "
           f"{completed / wall:.2f} 1/s)")
    setup_s = common.median([t for _, t in samples])
    report(f"  setup_s = {setup_s:.3f} s (median of {len(samples)} "
           f"host-scaled set-ups; wall / scaled: "
           f"{', '.join(f'{w:.3f}/{t:.3f}' for w, t in samples)}; inputs "
           f"{inp.gen_s:.3f} s each)")
    report(f"  peak_rss_mb = {rss:.1f} MiB (server process)")
    for p in problems[:10]:
        report(f"  FAIL: {p}")
    for ev in failed_events[:10]:
        report(f"  FAIL: request {ev.key[:12]} ({ev.kind}): {ev.problem}")
    report(f"  failed_ratio = {failed / attempted:.4f} "
           f"({failed} of {attempted})")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "instances_per_s": metric(capacity, "1/s"),
        "p50_ms": metric(p50_ms, "ms"),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    return failed == 0, attempted, failed, metrics


def run(seed: int, seconds: float) -> Tuple[bool, int, int, Dict]:
    return asyncio.run(_run(seed, seconds))


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
async def _run_traced(seed: int, seconds: float
                      ) -> Tuple[bool, int, int, Dict]:
    inp = make_inputs(seed, seconds)
    share = 0.45 * seconds
    problems: List[str] = []
    phases = {}
    spans_doc: Dict[str, Any] = {}
    for traced in (False, True):
        server, answers, _ = await start_server(inp, traced=traced)
        try:
            phase = await fixed_rate(server, Traffic(inp, seed, "run")
                                     .events(RATE_RPS, share), answers)
        finally:
            server.stop()
        answers.settle()
        if traced:
            kept = common.WORK / "spans-serve_mixed.json"
            shutil.move(server.spans_out, kept)
            with open(kept) as fh:
                spans_doc = json.load(fh)
        server.cleanup()
        problems += [f"request {ev.key[:12]}: {ev.problem}"
                     for ev in phase.events if ev.problem]
        problems += _mix_problems(phase) + _exposition_problems(phase)
        phases[traced] = phase
    plain, traced_phase = phases[False], phases[True]
    lat_plain, lat = _classify(plain), _classify(traced_phase)
    spans = [tuple(s) for s in spans_doc["spans"]]
    counts = spans_doc["counts"]
    rows = self_times(spans)
    units = 1.0

    values = layer_values(rows, counts, units)
    wall = values["exec.pool.wall_s"]
    values["exec.pool.worker_busy_s"] = wall
    values["exec.pool.busy_ratio"] = 1.0 if wall else 0.0
    s = traced_phase.stats
    submits = rows.get("serve.batcher.submit", {})
    values.update({
        "serve.protocol.parse.self_s":
            rows.get("serve.protocol.parse", {}).get("self_s", 0.0),
        "serve.protocol.encode.self_s":
            rows.get("serve.protocol.encode", {}).get("self_s", 0.0),
        "serve.batcher.wait_s": submits.get("total_s", 0.0)
        / submits["calls"] if submits.get("calls") else 0.0,
        "serve.batcher.dispatches": s["serve.dispatches"],
        "serve.batcher.batch_size":
            s["serve.dispatched_instances"] / s["serve.dispatches"]
            if s["serve.dispatches"] else 0.0,
        "serve.batcher.deduped": s["serve.deduped"],
        "serve.admission.shed": s["serve.shed"],
        "serve.app.server_p50_ms": _server_p50_ms(traced_phase.scrapes[-1]),
        "loadgen.late_p99_ms": percentile(lat["late"], 99),
        "trace.overhead_ratio": percentile(lat["all"], 50)
        / percentile(lat_plain["all"], 50),
    })
    for k in ("hits", "misses", "evictions", "bytes_read", "bytes_written"):
        values["exec.cache." + k] = s["cache." + k]
    from repro.sched.ckernel import CKERNEL_ACTIVE
    values["sched.ckernel_active"] = 1.0 if CKERNEL_ACTIVE else 0.0

    report(f"serve_mixed traced: {len(traced_phase.events)} requests at "
           f"{RATE_RPS:g} rps over {share:.1f} s per server; request "
           f"p50 untraced {percentile(lat_plain['all'], 50):.2f} ms, "
           f"traced {percentile(lat['all'], 50):.2f} ms, overhead "
           f"x{values['trace.overhead_ratio']:.3f}")
    report("  server-side spans; self time per phase, submit = wait")
    report(format_table(rows, units, "phase"))
    for p in problems[:10]:
        report(f"  FAIL: {p}")
    attempted = len(plain.events) + len(traced_phase.events)
    failed = min(len(problems), attempted)
    return not problems, attempted, failed, spec.layer_metrics(values)


def run_traced(seed: int, seconds: float) -> Tuple[bool, int, int, Dict]:
    return asyncio.run(_run_traced(seed, seconds))
