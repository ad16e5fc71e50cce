"""Shared helpers: statistics, result digests, memory, environment.

Every timing in this benchmark is ``time.perf_counter`` wall time.  The
gated ones are also scaled to the speed of a reference host (see
:class:`HostScale`).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Everything the benchmark writes lives under here (git-ignored).
WORK = ROOT / ".bench_build"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 < q < 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def results_digest(results: Iterable[Any]) -> str:
    """SHA-256 over the ``summarize_results`` payloads, in order."""
    from repro.exec.cache import summarize_results

    h = hashlib.sha256()
    for r in results:
        h.update(json.dumps(summarize_results(r), sort_keys=True,
                            separators=(",", ":")).encode())
    return h.hexdigest()


def golden(workload: str, seed: int) -> Optional[str]:
    """The committed result digest of ``workload`` at ``seed``, if any."""
    doc = json.loads((HERE / "golden.json").read_text())
    return doc.get(workload, {}).get(str(seed))


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _status_kb(pid: Any, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pid: Any = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set of any child waited for so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Iterations of the reference loop, repeats per reading, and the
#: loop's wall time in ms on the reference host: a gated timing is the
#: wall time scaled to that host.
REF_LOOP = 100_000
REF_REPEATS = 5
REF_MS = 10.0


def ref_loop_ms() -> float:
    """Median wall time of a fixed pure-Python loop, in ms.

    It runs no code of the repository, so it tracks only the speed the
    shared host gives this process at the moment; the median of a few
    short loops ignores a single preemption.
    """
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * median(times)


class HostScale:
    """How much faster the reference host is than this one, right now.

    Built before a timed span and read after it: :meth:`factor` is
    ``REF_MS`` over the mean of the reference loops run at both ends, so
    ``wall * factor()`` is the span's time on the reference host.  On a
    shared host whose speed drifts by tens of percent over minutes this
    removes most of the drift; a program change shows in full, because
    the loop runs none of the program.
    """

    def __init__(self) -> None:
        self.before_ms = ref_loop_ms()
        self.after_ms = float("nan")

    def factor(self) -> float:
        self.after_ms = ref_loop_ms()
        return REF_MS / (0.5 * (self.before_ms + self.after_ms))


def timed(fn: Any, *args: Any, **kwargs: Any) -> Tuple[float, float, Any]:
    """``(wall_s, scaled_s, result)`` of ``fn(...)``; see HostScale."""
    scale = HostScale()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return wall, wall * scale.factor(), out


# ----------------------------------------------------------------------
# Environment facts recorded with every result
# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    import numpy

    from repro.sched.ckernel import CKERNEL_ACTIVE

    rev = "unknown"
    if (ROOT / ".git").exists():  # never look at repositories above
        try:
            rev = subprocess.run(
                ["git", "describe", "--always", "--dirty"], cwd=ROOT,
                capture_output=True, text=True, timeout=5,
                check=True).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ckernel_active": bool(CKERNEL_ACTIVE),
    }


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, Any]]) -> None:
    """The result line: always the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The pool's shared-memory transport starts the tracker in this
    process; left alone it outlives the benchmark.  A no-op when no
    tracker runs.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def report(line: str) -> None:
    """A human-readable report line (standard output, before the result)."""
    print(line, flush=True)


class Deadline:
    """The measurement window of one run."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def quartile_spread(values: List[float]) -> float:
    """(Q3 - Q1) / median — the steadiness measure of repeated runs."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)
