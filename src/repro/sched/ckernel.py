"""Optional C accelerator for the list-scheduler event loop.

The reference event loop, :func:`repro.sched.eventloop.heapq_schedule`,
runs on Python lists and ``heapq``.  This module replays the same loop
over flat arrays — three array-backed binary min-heaps and a CSR
successor walk — in ~100 lines of C, compiled on first use with the
system C compiler and loaded through :mod:`ctypes`.  No third-party
package is required: when no compiler is available (or compilation,
loading, or the import-time self-test fails for any reason) the module
degrades silently and the scheduler keeps the ``heapq`` loop.

Determinism: every heap holds strictly totally ordered entries, so the
pop sequence of any correct min-heap is unique; the C heaps compare
``(a, b, c)`` lexicographically on exact float64 values, and the only
floating-point arithmetic is the same ``finish = time + w[v]`` IEEE-754
double addition.  The kernel's output arrays are therefore *identical*
to the ``heapq`` loop's (asserted by an import-time self-test here and
by the differential suite in ``tests/sched/test_ckernel.py``).  The
``REPRO_NO_CKERNEL`` gate therefore selects between bitwise-identical
backends and can never change results, reports, or cache bytes.

The compiled object is cached under ``~/.cache/repro`` keyed by a hash
of the C source, so each source revision compiles once per machine;
the write is atomic (``os.replace``), so concurrent workers race
benignly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional, Tuple

import numpy as np

from .eventloop import heapq_schedule

__all__ = ["CKERNEL_ACTIVE", "schedule_kernel_c"]

# Backend selection only — both backends are bitwise-identical, so this
# flag cannot affect results, reports, or cache bytes.
_DISABLED = bool(os.environ.get("REPRO_NO_CKERNEL"))  # repro: noqa[DET003]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

/* Lexicographic (a, b, c) < (a, b, c) — tuple order, unrolled.  Exact
 * float64 comparisons; entries are strictly totally ordered (tasks and
 * processor ids are unique), so heap pop order is deterministic. */
static int less3(double a1, i64 b1, i64 c1, double a2, i64 b2, i64 c2) {
    if (a1 != a2) return a1 < a2;
    if (b1 != b2) return b1 < b2;
    return c1 < c2;
}

static void push3(double *ha, i64 *hb, i64 *hc, i64 *size,
                  double a, i64 b, i64 c) {
    i64 i = (*size)++;
    ha[i] = a; hb[i] = b; hc[i] = c;
    while (i > 0) {
        i64 parent = (i - 1) >> 1;
        if (less3(ha[i], hb[i], hc[i], ha[parent], hb[parent], hc[parent])) {
            double ta = ha[i]; ha[i] = ha[parent]; ha[parent] = ta;
            i64 tb = hb[i]; hb[i] = hb[parent]; hb[parent] = tb;
            i64 tc = hc[i]; hc[i] = hc[parent]; hc[parent] = tc;
            i = parent;
        } else {
            break;
        }
    }
}

static void pop3(double *ha, i64 *hb, i64 *hc, i64 *size,
                 double *a, i64 *b, i64 *c) {
    *a = ha[0]; *b = hb[0]; *c = hc[0];
    i64 n = --(*size);
    ha[0] = ha[n]; hb[0] = hb[n]; hc[0] = hc[n];
    i64 i = 0;
    for (;;) {
        i64 left = 2 * i + 1;
        if (left >= n) break;
        i64 smallest = left;
        i64 right = left + 1;
        if (right < n && less3(ha[right], hb[right], hc[right],
                               ha[left], hb[left], hc[left]))
            smallest = right;
        if (less3(ha[smallest], hb[smallest], hc[smallest],
                  ha[i], hb[i], hc[i])) {
            double ta = ha[i]; ha[i] = ha[smallest]; ha[smallest] = ta;
            i64 tb = hb[i]; hb[i] = hb[smallest]; hb[smallest] = tb;
            i64 tc = hc[i]; hc[i] = hc[smallest]; hc[smallest] = tc;
            i = smallest;
        } else {
            break;
        }
    }
}

/* The event loop of repro.sched.eventloop.heapq_schedule over array heaps. */
int repro_list_schedule(i64 n, i64 n_processors,
                        const double *keys, const double *w,
                        const i64 *succ_flat, const i64 *succ_offsets,
                        const i64 *in_degrees,
                        double *starts, double *finishes, i64 *procs) {
    i64 heap_doubles = 2 * n + n_processors;
    i64 heap_ints = 2 * (2 * n + n_processors) + n;
    double *da = (double *)malloc((size_t)heap_doubles * sizeof(double));
    i64 *ia = (i64 *)malloc((size_t)heap_ints * sizeof(i64));
    if (da == NULL || ia == NULL) {
        free(da); free(ia);
        return -1;
    }
    double *r_a = da, *q_a = da + n, *f_a = da + 2 * n;
    i64 *r_b = ia, *r_c = ia + n;
    i64 *q_b = ia + 2 * n, *q_c = ia + 3 * n;
    i64 *f_b = ia + 4 * n, *f_c = f_b + n_processors;
    i64 *n_pending = f_c + n_processors;
    i64 r_n = 0, q_n = 0, f_n = n_processors;
    i64 v, p, scheduled = 0;
    double time = 0.0, finish, pa, ignored;

    for (p = 0; p < n_processors; p++) {
        f_a[p] = (double)p;  /* ascending order is already a min-heap */
        f_b[p] = 0; f_c[p] = 0;
    }
    for (v = 0; v < n; v++) {
        n_pending[v] = in_degrees[v];
        if (n_pending[v] == 0)
            push3(r_a, r_b, r_c, &r_n, keys[v], v, 0);
    }

    while (scheduled < n) {
        while (r_n > 0 && f_n > 0) {
            pop3(r_a, r_b, r_c, &r_n, &ignored, &v, &p);
            pop3(f_a, f_b, f_c, &f_n, &pa, &p, &p);
            p = (i64)pa;
            starts[v] = time;
            finish = time + w[v];
            finishes[v] = finish;
            procs[v] = p;
            push3(q_a, q_b, q_c, &q_n, finish, v, p);
            scheduled++;
        }
        if (q_n == 0)
            break;  /* all remaining tasks were sources already dispatched */
        pop3(q_a, q_b, q_c, &q_n, &time, &v, &p);
        for (;;) {
            i64 si;
            push3(f_a, f_b, f_c, &f_n, (double)p, 0, 0);
            for (si = succ_offsets[v]; si < succ_offsets[v + 1]; si++) {
                i64 s = succ_flat[si];
                if (--n_pending[s] == 0)
                    push3(r_a, r_b, r_c, &r_n, keys[s], s, 0);
            }
            if (!(q_n > 0 && q_a[0] <= time))
                break;
            pop3(q_a, q_b, q_c, &q_n, &time, &v, &p);
        }
    }
    free(da);
    free(ia);
    return 0;
}
"""


def _compile_cached() -> Optional[str]:
    """Compile the kernel into the per-user cache; path or ``None``.

    The object name embeds a hash of the C source, so stale objects are
    never reused across source revisions; concurrent builders race
    benignly through an atomic ``os.replace``.
    """
    tag = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache_dir = os.path.join(
        os.path.expanduser("~"), ".cache", "repro")
    so_path = os.path.join(cache_dir, f"listsched-{tag}.so")
    if os.path.exists(so_path):
        return so_path
    os.makedirs(cache_dir, exist_ok=True)
    fd, c_path = tempfile.mkstemp(suffix=".c", dir=cache_dir)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(_SOURCE)
        tmp_so = c_path[:-2] + ".so"
        subprocess.run(
            ["cc", "-O2", "-fPIC", "-shared", "-o", tmp_so, c_path],
            check=True, capture_output=True, timeout=120)
        os.replace(tmp_so, so_path)
    finally:
        try:
            os.remove(c_path)
        except OSError:
            pass
        try:
            os.remove(c_path[:-2] + ".so")
        except OSError:
            pass
    return so_path


def _self_test(fn) -> bool:
    """Differentially test the loaded kernel against the ``heapq`` loop.

    A fork–join graph on two processors exercises every code path:
    ready-queue ties, a stall (three ready tasks, two processors), the
    simultaneous-completion drain, and processor reuse.
    """
    keys = np.array([0.0, 3.0, 1.0, 2.0, 4.0])
    w = np.array([2.0, 3.0, 2.0, 2.0, 1.0])
    succ_flat = np.array([1, 2, 3, 4, 4, 4], dtype=np.intp)
    succ_offsets = np.array([0, 3, 4, 5, 6, 6], dtype=np.intp)
    in_degrees = np.array([0, 1, 1, 1, 3], dtype=np.intp)
    succs = [succ_flat[succ_offsets[v]:succ_offsets[v + 1]].tolist()
             for v in range(len(keys))]
    want = heapq_schedule(keys.tolist(), w.tolist(), succs,
                          in_degrees.tolist(), 2)
    got = fn(keys, w, succ_flat, succ_offsets, in_degrees, 2)
    return all(np.array_equal(a, b) for a, b in zip(want, got))


def _load():
    if _DISABLED:
        return None
    try:
        path = _compile_cached()
        lib = ctypes.CDLL(path)
        raw = lib.repro_list_schedule
        f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
        i64 = np.ctypeslib.ndpointer(dtype=np.intp, flags="C_CONTIGUOUS")
        raw.restype = ctypes.c_int
        raw.argtypes = [ctypes.c_int64, ctypes.c_int64,
                        f64, f64, i64, i64, i64, f64, f64, i64]

        def kernel(keys: np.ndarray, w: np.ndarray,
                   succ_flat: np.ndarray, succ_offsets: np.ndarray,
                   in_degrees: np.ndarray, n_processors: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            n = keys.shape[0]
            starts = np.zeros(n)
            finishes = np.zeros(n)
            procs = np.zeros(n, dtype=np.intp)
            rc = raw(n, n_processors, keys, w, succ_flat, succ_offsets,
                     in_degrees, starts, finishes, procs)
            if rc != 0:  # pragma: no cover - malloc failure
                raise MemoryError("C scheduler kernel allocation failed")
            return starts, finishes, procs

        if not _self_test(kernel):  # pragma: no cover - defends builds
            return None
        return kernel
    except Exception:  # pragma: no cover - no compiler, bad toolchain...
        return None


_kernel = _load()

#: True when :func:`schedule_kernel_c` dispatches to compiled code.
CKERNEL_ACTIVE = _kernel is not None


def schedule_kernel_c(keys: np.ndarray, w: np.ndarray,
                      succ_flat: np.ndarray, succ_offsets: np.ndarray,
                      in_degrees: np.ndarray, n_processors: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the C array kernel; only callable when :data:`CKERNEL_ACTIVE`.

    Returns the same ``(start, finish, processor)`` arrays, bit for
    bit, as :func:`repro.sched.eventloop.heapq_schedule` on the same
    inputs.
    """
    if _kernel is None:  # pragma: no cover - guarded by callers
        raise RuntimeError("C scheduler kernel is not available")
    return _kernel(np.ascontiguousarray(keys, dtype=np.float64),
                   np.ascontiguousarray(w, dtype=np.float64),
                   succ_flat, succ_offsets,
                   np.ascontiguousarray(in_degrees, dtype=np.intp),
                   n_processors)
