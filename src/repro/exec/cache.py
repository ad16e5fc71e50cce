"""Content-addressed on-disk cache for experiment results.

An *instance* is everything that determines a :func:`paper_suite`
outcome: the graph's structure and weights, the deadline, the platform
parameters, and the priority policy.  :func:`instance_digest` folds all
of it (plus :data:`CACHE_SCHEMA_VERSION`) into a SHA-256 key, so equal
inputs hit the same entry across processes and machines while any
change in the model parameters transparently misses.  The key is the
hash of one canonical JSON text; the graph's part of it, by far the
largest, is built once per graph and process from the graph's index
arrays and memoised on the graph (never pickled), so keying a graph at
several deadlines serialises it once.  DESIGN.md §10 explains why the
composed text equals a single ``json.dumps`` of the whole fingerprint.

What is cached: the :class:`~repro.core.results.ScheduleResult`
*summaries* — heuristic, energy breakdown, operating point, processor
count, deadlines, feasibility flag.  What is **not** cached: the
concrete :class:`~repro.sched.schedule.Schedule` (task placements), so
restored results carry ``schedule=None``.  Floats survive the JSON
round-trip exactly (shortest-repr encoding), which is what makes warm
and cold campaigns byte-identical.

Writes are atomic (temp file + ``os.replace`` in the same directory);
a truncated, corrupt or schema-stale entry is treated as a miss and
removed, never an error.

The store is safe under concurrent multi-process writers — the
discipline a long-running :mod:`repro.serve` service needs.  Mutating
operations (replacing an entry, dropping a corrupt one, evicting)
serialize on a per-shard advisory lock (``flock`` on the shard
*directory* fd, so no extra files appear under the root), and a corrupt
entry is re-validated under that lock before it is unlinked — a blind
unlink could destroy a valid entry a concurrent ``put`` just replaced
the corrupt bytes with.  With ``max_bytes`` set the cache is also
size-bounded: ``put`` prunes least-recently-used entries (access times
are refreshed on hit) and sweeps aged ``*.tmp`` orphans left by writers
killed mid-``put``.  ``max_bytes=None`` (the default) changes nothing —
campaign runs produce byte-identical trees with or without this module's
service features.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, \
    Tuple, Union

try:
    import fcntl
    _HAVE_FLOCK = True
except ImportError:  # pragma: no cover - non-POSIX fallback
    _HAVE_FLOCK = False

from ..core.platform import Platform
from ..core.results import Heuristic, ScheduleResult
from ..graphs.dag import TaskGraph
from ..obs import ObsLog, live
from ..power.dvs import OperatingPoint

__all__ = [
    "CACHE_SCHEMA_VERSION", "CacheStats", "EvictionSweep", "ResultCache",
    "instance_digest", "shard_lock", "summarize_results",
    "restore_results",
]

#: Bump when the cached payload layout or the energy model semantics
#: change; the version participates in the digest, so old entries are
#: silently orphaned rather than misread.
#:
#: History: 2 — Phase-1 anomaly guard + always-advancing makespan
#: plateau in the LAMPS sweeps can (rarely) change which configuration
#: wins, so results cached under the old search are stale.
CACHE_SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# Instance digests
# ----------------------------------------------------------------------
#: The canonical JSON encoder every part of a key goes through: sorted
#: keys, no whitespace, ``ensure_ascii`` (so the text is its own UTF-8).
_dumps = functools.partial(json.dumps, sort_keys=True,
                           separators=(",", ":"))


def _graph_fragment(graph: TaskGraph) -> bytes:
    """``_dumps`` of the graph's fingerprint, built from its index arrays.

    The fingerprint is ``{"edges": [[u, v], ...], "name": ...,
    "weights": [...]}`` over dense node indices, edges in ascending
    ``(u, v)`` order.  Node *labels* do not influence scheduling (the
    schedulers operate on dense indices), but the name is included so a
    cached result is never replayed under a different benchmark label.

    The text is written directly rather than through a list of
    ``[u, v]`` lists: each index is stringified once, each source
    task's edges are one ``str.join``, and weights use
    ``float.__repr__`` — json's own float rendering, exact here because
    a :class:`TaskGraph`'s weights are finite.
    """
    idx = list(map(str, range(graph.n)))
    edges = ",".join([
        "[" + idx[u] + "," + ("],[" + idx[u] + ",").join(
            map(idx.__getitem__, succs)) + "]"
        for u, succs in enumerate(graph.succ_indices) if succs])
    weights = ",".join(map(float.__repr__, graph.weights_array.tolist()))
    return ('{"edges":[' + edges + '],"name":' + _dumps(graph.name)
            + ',"weights":[' + weights + "]}").encode()


def _platform_fingerprint(platform: Platform) -> dict:
    """Everything of the platform that reaches the energy numbers."""
    ladder = platform.ladder
    return {
        "technology": dataclasses.asdict(ladder.tech),
        "vdd_step": ladder.vdd_step,
        "points": [[p.frequency, p.vdd, p.vbs] for p in ladder],
        "sleep": dataclasses.asdict(platform.sleep),
    }


#: The last platform digested and its ``_dumps`` text.  A campaign and
#: the service key every instance against one platform, so one slot
#: serves them; another platform just replaces it.
_platform_memo: Tuple[Optional[Platform], str] = (None, "")


def _platform_text(platform: Platform) -> str:
    """``_dumps`` of the platform's fingerprint, via ``_platform_memo``."""
    global _platform_memo
    last, text = _platform_memo
    if last is not platform:
        text = _dumps(_platform_fingerprint(platform))
        _platform_memo = (platform, text)
    return text


def instance_digest(
    graph: TaskGraph,
    deadline: float,
    platform: Platform,
    policy: str,
    *,
    deadline_overrides: Optional[Mapping[Hashable, float]] = None,
    schema: Optional[int] = None,
) -> str:
    """Stable SHA-256 key of one (graph, deadline, platform, policy).

    The digest is taken over the canonical JSON rendering (sorted keys,
    no whitespace, no hash-seed dependence) of ``{"deadline",
    "deadline_overrides", "graph", "platform", "policy", "schema"}``,
    so it is stable across process restarts and ``PYTHONHASHSEED``
    values.  That text is fed to the hash in three parts — the keys
    before ``"graph"``, the graph's fragment (built once per graph and
    process, see :meth:`TaskGraph.fragment`), and the rest — so a graph
    keyed at several deadlines is serialised once.  Only string
    policies are digestible; a callable policy has no stable identity
    and must bypass the cache.
    """
    if not isinstance(policy, str):
        raise TypeError(
            f"only named policies are cacheable, got {policy!r}")
    overrides = None if deadline_overrides is None else sorted(
        [graph.index_of(k), float(v)] for k, v in deadline_overrides.items())
    h = hashlib.sha256(
        ('{"deadline":' + _dumps(float(deadline))
         + ',"deadline_overrides":' + _dumps(overrides)
         + ',"graph":').encode())
    h.update(graph.fragment(_graph_fragment))
    h.update((',"platform":' + _platform_text(platform)
              + ',"policy":' + _dumps(policy)
              + ',"schema":'
              + _dumps(CACHE_SCHEMA_VERSION if schema is None else schema)
              + "}").encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Result (de)serialisation
# ----------------------------------------------------------------------
def _summarize_result(r: ScheduleResult) -> dict:
    return {
        "heuristic": r.heuristic.value,
        "graph_name": r.graph_name,
        "energy": {
            "busy": r.energy.busy,
            "idle": r.energy.idle,
            "sleep": r.energy.sleep,
            "overhead": r.energy.overhead,
            "n_shutdowns": r.energy.n_shutdowns,
        },
        "point": None if r.point is None else {
            "frequency": r.point.frequency,
            "vdd": r.point.vdd,
            "active_power": r.point.active_power,
            "idle_power": r.point.idle_power,
            "energy_per_cycle": r.point.energy_per_cycle,
            "vbs": r.point.vbs,
        },
        "n_processors": r.n_processors,
        "deadline_cycles": r.deadline_cycles,
        "deadline_seconds": r.deadline_seconds,
        "meets_deadline": r.meets_deadline,
    }


def summarize_results(results: Mapping[Heuristic, ScheduleResult]
                      ) -> List[dict]:
    """JSON-able summaries of a :func:`paper_suite` outcome, in order.

    The concrete schedules are dropped — see the module docstring.
    """
    return [_summarize_result(r) for r in results.values()]


def restore_results(payload: List[dict]) -> Dict[Heuristic, ScheduleResult]:
    """Inverse of :func:`summarize_results` (with ``schedule=None``)."""
    from ..core.energy import EnergyBreakdown

    out: Dict[Heuristic, ScheduleResult] = {}
    for d in payload:
        h = Heuristic(d["heuristic"])
        point = d["point"]
        out[h] = ScheduleResult(
            heuristic=h,
            graph_name=d["graph_name"],
            energy=EnergyBreakdown(**d["energy"]),
            point=None if point is None else OperatingPoint(**point),
            n_processors=d["n_processors"],
            deadline_cycles=d["deadline_cycles"],
            deadline_seconds=d["deadline_seconds"],
            schedule=None,
            meets_deadline=d["meets_deadline"],
        )
    return out


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
@contextlib.contextmanager
def shard_lock(shard_dir: Union[str, Path]) -> Iterator[None]:
    """Advisory exclusive lock on one cache shard directory.

    Locks the directory's own fd (``flock``), so the lock leaves no
    file behind under the cache root and vanishes with the process —
    a crashed writer can never wedge the shard.  Advisory: plain reads
    skip it (``os.replace`` keeps them atomic); every *mutating* path —
    replacing an entry, dropping a corrupt one, evicting — takes it, so
    mutations on one shard serialize across processes.  On platforms
    without ``fcntl`` the lock degrades to a no-op, which is the
    historical (single-writer) behaviour.
    """
    if not _HAVE_FLOCK:  # pragma: no cover - non-POSIX fallback
        yield
        return
    fd = os.open(shard_dir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the fd releases the flock


@dataclass
class EvictionSweep:
    """What one :meth:`ResultCache.evict` pass removed and kept."""

    entries_removed: int = 0
    bytes_removed: int = 0
    tmp_removed: int = 0
    bytes_kept: int = 0


@dataclass
class CacheStats:
    """Hit/miss and traffic counters of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    evictions: int = 0
    tmp_swept: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Content-addressed JSON store under ``root``.

    Entries are sharded by the first two hex digits of the key.  ``get``
    never raises on bad entries: unreadable, truncated, corrupt or
    schema-stale files count as misses and are unlinked so the caller
    simply recomputes.  ``put`` is atomic — readers see either the old
    entry or the complete new one, and a crash leaves no partial file
    under a final entry name.

    With ``max_bytes`` the store is size-bounded: once the tree exceeds
    the budget, ``put`` triggers :meth:`evict`, which prunes entries in
    least-recently-used order (hits refresh the entry's access time)
    and sweeps ``*.tmp`` orphans older than ``tmp_ttl_seconds`` — the
    leftovers of writers SIGKILLed between ``mkstemp`` and
    ``os.replace``.  ``max_bytes=None`` performs no eviction, no sweep
    and no extra syscalls.

    An optional :class:`~repro.obs.ObsLog` records hit/miss counters
    and ``cache.get`` / ``cache.put`` latency histograms; it never
    affects what is stored or returned.
    """

    def __init__(self, root: Union[str, Path],
                 obs: Optional[ObsLog] = None, *,
                 max_bytes: Optional[int] = None,
                 tmp_ttl_seconds: float = 3600.0) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        self.obs = obs
        self.max_bytes = max_bytes
        self.tmp_ttl_seconds = tmp_ttl_seconds
        #: Running estimate of the tree size, measured lazily on the
        #: first bounded put and advanced by write sizes; an eviction
        #: pass resets it to the exact surviving total.
        self._approx_bytes: Optional[int] = None

    def path_for(self, key: str) -> Path:
        """Entry path for digest ``key``."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[List[dict]]:
        """Cached payload for ``key``, or ``None`` on any kind of miss."""
        t0 = time.perf_counter()
        payload = self._get(key)
        o = live(self.obs)
        o.observe("cache.get", time.perf_counter() - t0)
        o.count("cache.hits" if payload is not None else "cache.misses")
        return payload

    def _read_entry(self, path: Path) -> Optional[bytes]:
        """Raw entry bytes, or ``None`` when the file is absent.

        Bytes, not text: a garbage entry may not be valid UTF-8, and a
        ``read_text`` decode error would escape the corrupt-entry
        handling (``UnicodeDecodeError`` is not an ``OSError``) and
        crash the caller instead of counting a miss.  Decoding is
        ``json.loads``'s job, inside :meth:`_decode_entry`'s guard.
        """
        try:
            return path.read_bytes()
        except OSError:
            return None

    @staticmethod
    def _decode_entry(blob: bytes) -> Optional[List[dict]]:
        """Validated payload of one entry's bytes; ``None`` if corrupt."""
        try:
            entry = json.loads(blob)
            if entry["schema"] != CACHE_SCHEMA_VERSION:
                raise ValueError("stale cache schema")
            payload = entry["results"]
            if not isinstance(payload, list):
                raise ValueError("malformed cache payload")
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None
        return payload  # type: ignore[no-any-return]

    def _get(self, key: str) -> Optional[List[dict]]:
        path = self.path_for(key)
        blob = self._read_entry(path)
        payload = None if blob is None else self._decode_entry(blob)
        if blob is not None and payload is None:
            payload, blob = self._drop_corrupt(path)
        if payload is None or blob is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(blob)
        if self.max_bytes is not None:
            # Refresh the entry's timestamps so LRU eviction sees the
            # hit; only when bounded — unbounded caches stay untouched.
            with contextlib.suppress(OSError):
                os.utime(path)
        return payload

    def _drop_corrupt(self, path: Path
                      ) -> Tuple[Optional[List[dict]], Optional[bytes]]:
        """Remove a corrupt entry — re-validated under the shard lock.

        Between this process reading corrupt bytes and unlinking them, a
        concurrent ``put`` may have ``os.replace``\\ d a *valid* entry at
        the same path; blindly unlinking would permanently destroy that
        fresh write.  So: take the shard lock, re-read, and only unlink
        what is still corrupt.  Returns ``(payload, blob)`` when the
        re-read found the entry healthy (the race happened — serve it as
        a hit), else ``(None, None)``.
        """
        try:
            with shard_lock(path.parent):
                blob = self._read_entry(path)
                if blob is not None:
                    payload = self._decode_entry(blob)
                    if payload is not None:
                        return payload, blob
                    with contextlib.suppress(OSError):
                        path.unlink()
        except OSError:  # shard directory itself vanished: a plain miss
            pass
        return None, None

    def put(self, key: str, payload: List[dict]) -> None:
        """Atomically store ``payload`` (a :func:`summarize_results` list)."""
        t0 = time.perf_counter()
        self._put(key, payload)
        o = live(self.obs)
        o.observe("cache.put", time.perf_counter() - t0)
        o.count("cache.writes")

    def _put(self, key: str, payload: List[dict]) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "results": payload},
            sort_keys=True, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            with shard_lock(path.parent):
                os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.stats.bytes_written += len(text)
        if self.max_bytes is not None:
            self._note_write(len(text))

    # ------------------------------------------------------------------
    # Size-bounded eviction (only ever active with max_bytes set)
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Exact current size of all entry files under the root."""
        total = 0
        for _path, st in self._scan_entries():
            total += st.st_size
        return total

    def usage(self) -> Tuple[int, int]:
        """Current ``(entry_count, total_bytes)`` in one tree walk.

        The ``/metrics`` gauge pair — one :meth:`_scan_entries` pass
        serves both numbers, so a scrape costs a single directory walk.
        """
        entries = self._scan_entries()
        return len(entries), sum(st.st_size for _path, st in entries)

    def _scan_entries(self) -> List[Tuple[Path, os.stat_result]]:
        """Stat every entry file, in sorted order; vanished ones skipped."""
        out: List[Tuple[Path, os.stat_result]] = []
        if not self.root.is_dir():
            return out
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    out.append((path, path.stat()))
                except OSError:  # evicted/replaced concurrently
                    continue
        return out

    def _note_write(self, nbytes: int) -> None:
        """Advance the size estimate; evict when it crosses the budget."""
        if self._approx_bytes is None:
            self._approx_bytes = self.total_bytes()
        else:
            self._approx_bytes += nbytes
        assert self.max_bytes is not None
        if self._approx_bytes > self.max_bytes:
            self.evict()

    def evict(self) -> EvictionSweep:
        """One maintenance pass: prune to ``max_bytes``, sweep orphans.

        Entries leave in least-recently-used order (access time, with
        the path as a deterministic tie-break) until the tree fits the
        budget; every unlink happens under the shard lock and only
        after re-checking that the file was not concurrently replaced
        by a fresher write.  ``*.tmp`` files older than
        ``tmp_ttl_seconds`` — orphans of writers that died between
        ``mkstemp`` and ``os.replace``, whose ``finally`` never ran —
        are removed in the same pass (a *live* writer's tmp is always
        younger than the TTL).  Safe to call on an unbounded cache: it
        then only sweeps orphans.
        """
        sweep = EvictionSweep()
        # Wall-clock ages the tmp orphans and never feeds results,
        # reports or cache keys.
        now = time.time()  # repro: noqa[DET002]
        entries: List[Tuple[float, int, float, Path]] = []
        total = 0
        if self.root.is_dir():
            for shard in sorted(self.root.iterdir()):
                if not shard.is_dir():
                    continue
                self._sweep_tmp(shard, now, sweep)
                for path in sorted(shard.glob("*.json")):
                    try:
                        st = path.stat()
                    except OSError:
                        continue
                    entries.append((st.st_atime, st.st_size,
                                    st.st_mtime, path))
                    total += st.st_size
        if self.max_bytes is not None and total > self.max_bytes:
            entries.sort(key=lambda e: (e[0], str(e[3])))
            for atime, size, mtime, path in entries:
                if total <= self.max_bytes:
                    break
                with contextlib.suppress(OSError), \
                        shard_lock(path.parent):
                    st = path.stat()
                    if (st.st_mtime, st.st_size) != (mtime, size):
                        continue  # concurrently refreshed — keep it
                    path.unlink()
                    total -= size
                    sweep.entries_removed += 1
                    sweep.bytes_removed += size
        sweep.bytes_kept = total
        self._approx_bytes = total
        self.stats.evictions += sweep.entries_removed
        self.stats.tmp_swept += sweep.tmp_removed
        o = live(self.obs)
        o.count("cache.evictions", sweep.entries_removed)
        o.count("cache.tmp_swept", sweep.tmp_removed)
        return sweep

    def _sweep_tmp(self, shard: Path, now: float,
                   sweep: EvictionSweep) -> None:
        """Unlink aged ``*.tmp`` orphans in one shard, under its lock."""
        tmps = []
        for path in sorted(shard.glob("*.tmp")):
            try:
                if now - path.stat().st_mtime >= self.tmp_ttl_seconds:
                    tmps.append(path)
            except OSError:
                continue
        if not tmps:
            return
        with contextlib.suppress(OSError), shard_lock(shard):
            for path in tmps:
                try:
                    if now - path.stat().st_mtime < self.tmp_ttl_seconds:
                        continue  # a live writer's fresh tmp
                    path.unlink()
                except OSError:
                    continue
                sweep.tmp_removed += 1
