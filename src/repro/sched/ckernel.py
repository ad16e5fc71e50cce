"""Optional C accelerator for the planning layer and the ladder sweep.

The C source below has three routines, compiled on first use with the
system C compiler and loaded through :mod:`ctypes`:

* ``repro_plan_schedule`` — the fused call per list schedule behind
  :func:`plan_schedule_c`: the event loop of
  :func:`repro.sched.eventloop.heapq_schedule` over flat arrays (ready
  and event heaps of ``{key, task}`` structs, a free-processor bitset
  and a CSR successor walk, in one scratch allocation per call), then
  everything
  :meth:`Schedule._init_arrays <repro.sched.schedule.Schedule>`
  derives (per-processor order and bounds, busy cycles, last finish,
  employed ids, internal gaps, makespan), ready for the private
  constructor ``Schedule._adopt``, and the schedule's required-frequency
  ratio against the deadline vector ``list_schedule`` received;
* ``repro_levels`` — ALAP deadlines and top levels in one pass each
  over the successor CSR in topological order, behind
  :func:`levels_c`;
* ``repro_sweep`` — every (request, point) lane of a batch of DVS
  ladder sweeps, behind :func:`sweep_c`, which
  :func:`repro.core.batch.batch_energy_sweep` calls once per batch.

No third-party package is required.  ``REPRO_NO_CKERNEL`` gates all
three together, and when no compiler is available (or compilation,
loading, or the import-time self-test fails for any reason) the module
degrades silently to the Python references: the ``heapq`` loop with
``Schedule.from_arrays``, the loops of :mod:`repro.graphs.analysis`,
and the scalar :func:`repro.core.energy.schedule_energy` loop.

Determinism: every heap holds strictly totally ordered entries, so the
pop sequence of any correct min-heap is unique.  The C heaps compare
``(key, task)`` on exact float64 keys — a task sits in each heap at
most once, and NaN keys are rejected by
:func:`~repro.sched.priorities.priority_keys` — and the free processors
are a bitset popped at its lowest set bit, the lowest free id, which is
what the reference's min-heap of ids pops.  The event loop's only
floating-point arithmetic is the same ``finish = time + w[v]``
IEEE-754 double addition.  The derive repeats ``_init_arrays``'s
subtractions and its sequential prefix sum in the same order, the
ratio repeats ``required_reference_frequency``'s divisions and takes
an exact maximum, and the levels take exact minima and maxima.  The
sweep repeats ``schedule_energy``'s operations lane by lane, with a
port of numpy's pairwise summation for the gap sums, and the compile
flags (:data:`_CFLAGS`) forbid contracting a multiply and an add into
one FMA.  Every result is therefore *identical* to the reference's
(asserted by an import-time self-test here and by the differential
suites in ``tests/sched/test_ckernel.py`` and
``tests/core/test_batch_sweep.py``), so the gate selects between
bitwise-identical backends and can never change results, reports, or
cache bytes.

Calls pass raw addresses (``c_void_p``).  The addresses of a graph's
constant arrays are taken once per process and kept in
:meth:`TaskGraph.binding <repro.graphs.dag.TaskGraph.binding>`, which
pickling drops.  No routine keeps static state: ctypes releases the GIL
during a call, and the service calls the kernel from executor threads.

The compiled object is cached under ``~/.cache/repro`` keyed by a hash
of the C source and the compile command, so each revision of either
compiles once per machine; the write is atomic (``os.replace``), so
concurrent workers race benignly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from ..graphs.analysis import _alap_loop, _top_levels_loop
from ..graphs.dag import TaskGraph
from .eventloop import heapq_schedule
from .schedule import Schedule, same_kernel

__all__ = ["CKERNEL_ACTIVE", "levels_c", "plan_schedule_c", "sweep_c"]

# Backend selection only — both backends are bitwise-identical, so this
# flag cannot affect results, reports, or cache bytes.
_DISABLED = bool(os.environ.get("REPRO_NO_CKERNEL"))  # repro: noqa[DET003]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;

/* One heap entry: (priority key, task) in the ready heap, (finish,
 * task) in the event heap, whose task runs on procs[task].  A task is
 * in each heap at most once, so ids are unique within a heap and (key,
 * id) is a strict total order on exact float64 keys (NaN keys are
 * rejected upstream): any correct min-heap pops the same sequence as
 * heapq_schedule's tuple heaps. */
typedef struct {
    double key;
    i64 id;
} entry;

/* a before b in (key, id) order.  Bitwise & and | evaluate both sides,
 * so the comparison compiles without branches. */
static int before(const entry *a, const entry *b) {
    return (a->key < b->key) | ((a->key == b->key) & (a->id < b->id));
}

/* Sift a hole up from the new leaf, then drop the entry into it. */
static void push(entry *h, i64 *size, double key, i64 id) {
    i64 i = (*size)++;
    entry e;
    e.key = key;
    e.id = id;
    while (i > 0) {
        i64 parent = (i - 1) >> 1;
        if (!before(&e, &h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = e;
}

/* Take the root.  Floyd's method: the hole walks down the smaller
 * children to a leaf (a branch-free choice while both exist), then the
 * last entry sifts up from there. */
static entry pop(entry *h, i64 *size) {
    entry top = h[0], last = h[--*size];
    i64 n = *size, i = 0, child = 1;
    while (child + 1 < n) {
        child += before(&h[child + 1], &h[child]);
        h[i] = h[child];
        i = child;
        child = 2 * i + 1;
    }
    if (child < n) {
        h[i] = h[child];
        i = child;
    }
    while (i > 0) {
        i64 parent = (i - 1) >> 1;
        if (!before(&last, &h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = last;
    return top;
}

/* Index of the lowest set bit of x != 0: x & -x isolates it, and the
 * de Bruijn multiply maps each of the 64 powers of two to a distinct
 * top-6-bit pattern.  Portable C99, no compiler builtin. */
static const unsigned char debruijn_index[64] = {
     0,  1, 48,  2, 57, 49, 28,  3, 61, 58, 50, 42, 38, 29, 17,  4,
    62, 55, 59, 36, 53, 51, 43, 22, 45, 39, 33, 30, 24, 18, 12,  5,
    63, 47, 56, 27, 60, 41, 37, 16, 54, 35, 52, 21, 44, 32, 23, 11,
    46, 26, 40, 15, 34, 20, 31, 10, 25, 14, 19,  9, 13,  8,  7,  6
};

static i64 lowest_bit(u64 x) {
    return debruijn_index[((x & -x) * (u64)0x03f79d71b4cb0a89) >> 58];
}

/* Bytes of scratch one event loop needs: the ready and event heaps (n
 * entries each), the free-processor bitset and the pending counts. */
static size_t loop_bytes(i64 n, i64 n_processors) {
    return (size_t)(2 * n) * sizeof(entry)
        + (size_t)((n_processors + 63) / 64) * sizeof(u64)
        + (size_t)n * sizeof(i64);
}

/* The event loop of repro.sched.eventloop.heapq_schedule.  The free
 * processors are a bitset popped at its lowest set bit: the lowest free
 * id, exactly what the reference's min-heap of ids pops.  lo is the
 * lowest word that may hold a set bit.  seq receives the tasks in
 * dispatch order. */
static void event_loop(i64 n, i64 n_processors,
                       const double *keys, const double *w,
                       const i64 *succ_flat, const i64 *succ_offsets,
                       const i64 *in_degrees,
                       double *starts, double *finishes, i64 *procs,
                       void *scratch, i64 *seq) {
    entry *ready = (entry *)scratch, *running = ready + n;
    u64 *free_bits = (u64 *)(running + n);
    i64 n_words = (n_processors + 63) / 64;
    i64 *n_pending = (i64 *)(free_bits + n_words);
    i64 r_n = 0, q_n = 0, n_free = n_processors, lo = 0;
    i64 v, p, scheduled = 0;
    double time = 0.0;
    entry e;

    for (v = 0; v < n_words; v++)
        free_bits[v] = ~(u64)0;
    if (n_processors % 64)
        free_bits[n_words - 1] = ((u64)1 << (n_processors % 64)) - 1;
    for (v = 0; v < n; v++) {
        n_pending[v] = in_degrees[v];
        if (n_pending[v] == 0)
            push(ready, &r_n, keys[v], v);
    }

    while (scheduled < n) {
        while (r_n > 0 && n_free > 0) {
            v = pop(ready, &r_n).id;
            while (free_bits[lo] == 0)
                lo++;
            p = 64 * lo + lowest_bit(free_bits[lo]);
            free_bits[lo] &= free_bits[lo] - 1;
            n_free--;
            starts[v] = time;
            finishes[v] = time + w[v];
            procs[v] = p;
            push(running, &q_n, finishes[v], v);
            seq[scheduled++] = v;
        }
        if (q_n == 0)
            break;  /* all remaining tasks were sources already dispatched */
        e = pop(running, &q_n);
        time = e.key;
        for (;;) {
            i64 si, word = procs[e.id] >> 6;
            free_bits[word] |= (u64)1 << (procs[e.id] & 63);
            if (word < lo)
                lo = word;
            n_free++;
            for (si = succ_offsets[e.id]; si < succ_offsets[e.id + 1]; si++) {
                i64 s = succ_flat[si];
                if (--n_pending[s] == 0)
                    push(ready, &r_n, keys[s], s);
            }
            if (!(q_n > 0 && running[0].key <= time))
                break;
            e = pop(running, &q_n);
        }
    }
}

/* Schedule.required_reference_frequency: the max over tasks of
 * finish / d, where a deadline that is not positive (NaN included)
 * contributes inf when its finish is positive and 0.0 otherwise.  A NaN
 * ratio propagates like numpy's max; no tasks give 0.0. */
static double required_ratio(i64 n, const double *finishes,
                             const double *d) {
    double m = 0.0;
    i64 i;
    for (i = 0; i < n; i++) {
        double r = d[i] > 0.0 ? finishes[i] / d[i]
                              : (finishes[i] > 0.0 ? INFINITY : 0.0);
        if (r != r)
            return r;
        if (i == 0 || r > m)
            m = r;
    }
    return m;
}

/* Task a sorts after task b on one processor: (start, finish, index). */
static int later(const double *starts, const double *finishes,
                 i64 a, i64 b) {
    if (starts[a] != starts[b]) return starts[a] > starts[b];
    if (finishes[a] != finishes[b]) return finishes[a] > finishes[b];
    return a > b;
}

/* The event loop followed by everything Schedule._init_arrays derives,
 * with the same floating-point operations in the same order, and the
 * required-frequency ratio against the deadline vector d (skipped when
 * d is NULL).
 *   f  = [starts n | finishes n | makespan | ratio | busy P | last P
 *         | gap lo, hi, len (3n capacity) | keys n | ...]
 *   ix = [n_gaps, n_employed | procs n | order n | bounds P+1
 *         | gap bounds P+1 | employed ids P]
 * The caller fills the keys; the gaps come back packed as
 * lo[k], hi[k], len[k] from offset 2n+2+2P. */
int repro_plan_schedule(i64 n, i64 n_processors, const double *w,
                        const i64 *succ_flat, const i64 *succ_offsets,
                        const i64 *in_degrees, const double *d,
                        double *f, i64 *ix) {
    i64 P = n_processors;
    double *starts = f, *finishes = f + n;
    double *busy = f + 2 * n + 2, *last = busy + P;
    double *gap_lo = last + P, *gap_hi = gap_lo + n, *gap_len = gap_hi + n;
    const double *keys = gap_len + n;
    i64 *procs = ix + 2, *order = procs + n, *bounds = order + n;
    i64 *gap_bounds = bounds + P + 1, *employed = gap_bounds + P + 1;
    i64 i, j, p, k = 0, e = 0;
    double makespan, acc = 0.0;
    size_t loop = loop_bytes(n, P);
    char *scratch = (char *)malloc(loop + (size_t)n * sizeof(i64));
    i64 *seq;
    if (scratch == NULL)
        return -1;
    seq = (i64 *)(scratch + loop);
    event_loop(n, P, keys, w, succ_flat, succ_offsets, in_degrees,
               starts, finishes, procs, scratch, seq);

    /* Per-processor order: a stable counting sort of the dispatch
     * sequence by processor, then an insertion sort by (start, finish,
     * index).  One processor's tasks are dispatched in start order, so
     * only equal-start zero-weight tasks can move. */
    for (p = 0; p <= P; p++)
        bounds[p] = 0;
    for (i = 0; i < n; i++)
        bounds[procs[i] + 1]++;
    for (p = 0; p < P; p++)
        bounds[p + 1] += bounds[p];
    for (p = 0; p < P; p++)
        gap_bounds[p] = bounds[p];  /* fill cursors */
    for (i = 0; i < n; i++) {
        i64 v = seq[i];
        order[gap_bounds[procs[v]]++] = v;
    }
    free(scratch);
    for (p = 0; p < P; p++) {
        for (i = bounds[p] + 1; i < bounds[p + 1]; i++) {
            i64 v = order[i];
            for (j = i; j > bounds[p] && later(starts, finishes,
                                               order[j - 1], v); j--)
                order[j] = order[j - 1];
            order[j] = v;
        }
    }

    /* Busy cycles as differences of the sequential prefix sum of the
     * sorted durations (np.cumsum), last finish in sorted order, the
     * employed ids and the internal idle gaps. */
    for (p = 0; p < P; p++) {
        double before = acc, prev = 0.0;
        gap_bounds[p] = k;
        for (i = bounds[p]; i < bounds[p + 1]; i++) {
            i64 v = order[i];
            acc += finishes[v] - starts[v];
            if (starts[v] > prev) {
                gap_lo[k] = prev;
                gap_hi[k] = starts[v];
                gap_len[k] = starts[v] - prev;
                k++;
            }
            prev = finishes[v];
        }
        busy[p] = acc - before;
        if (bounds[p + 1] > bounds[p]) {
            last[p] = finishes[order[bounds[p + 1] - 1]];
            employed[e++] = p;
        } else {
            last[p] = 0.0;
        }
    }
    gap_bounds[P] = k;
    memmove(gap_lo + k, gap_hi, (size_t)k * sizeof(double));
    memmove(gap_lo + 2 * k, gap_len, (size_t)k * sizeof(double));

    makespan = n > 0 ? finishes[0] : 0.0;
    for (i = 1; i < n; i++)
        if (finishes[i] > makespan)
            makespan = finishes[i];
    f[2 * n] = makespan;
    if (d != NULL)
        f[2 * n + 1] = required_ratio(n, finishes, d);
    ix[0] = k;
    ix[1] = e;
    return 0;
}

/* ALAP deadlines and top levels over the successor CSR in topological
 * order.  dl (prefilled with the graph deadline and any overrides) is
 * propagated in place when not NULL; tl receives the top levels when
 * not NULL.  The minima and maxima are exact, so the results equal
 * the Python loops bit for bit. */
void repro_levels(i64 n, const i64 *topo, const double *w,
                  const i64 *succ_flat, const i64 *succ_offsets,
                  double *dl, double *tl) {
    i64 i, si;
    if (dl != NULL) {
        for (i = n - 1; i >= 0; i--) {
            i64 v = topo[i];
            double dv = dl[v];
            for (si = succ_offsets[v]; si < succ_offsets[v + 1]; si++) {
                i64 s = succ_flat[si];
                double latest = dl[s] - w[s];
                if (latest < dv)
                    dv = latest;
            }
            dl[v] = dv;
        }
    }
    if (tl != NULL) {
        for (i = 0; i < n; i++)
            tl[i] = 0.0;
        for (i = 0; i < n; i++) {
            i64 v = topo[i];
            double t = tl[v] + w[v];
            tl[v] = t;
            for (si = succ_offsets[v]; si < succ_offsets[v + 1]; si++) {
                i64 s = succ_flat[si];
                if (t > tl[s])
                    tl[s] = t;
            }
        }
    }
}

/* numpy's DOUBLE_pairwise_sum (what np.sum does to a contiguous float64
 * vector): a plain loop below 8 elements, eight accumulators up to 128,
 * and above that a split at n/2 rounded down to a multiple of 8. */
static double pairwise(const double *a, i64 n) {
    i64 i;
    if (n < 8) {
        double res = 0.;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0]; r[1] += a[i + 1];
            r[2] += a[i + 2]; r[3] += a[i + 3];
            r[4] += a[i + 4]; r[5] += a[i + 5];
            r[6] += a[i + 6]; r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) +
              ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    } else {
        i64 n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise(a, n2) + pairwise(a + n2, n - n2);
    }
}

/* Ladder sweeps over CSR-packed schedules, one lane per (request,
 * point) in request-major order, each lane computed with the
 * operations of repro.core.energy.schedule_energy in the same order.
 *   req  = [member, n_points, sleep flag] per request
 *   reqf = [window, sleep power, overhead energy] per request
 *   pts  = [frequency, energy per cycle, idle power] per lane
 *   member_offsets (members + 1) -> employed-processor slots
 *   busy, last, gap_offsets (slots + 1) -> gaps (internal gap cycles)
 *   out  = [busy, idle, sleep, overhead] per lane; shut = shutdowns
 * Returns 0; 1 at the first lane whose window is too short, with
 * bad = [lane, slot] (slot -1: the makespan guard); -1 when the
 * scratch allocation fails. */
int repro_sweep(i64 n_requests, const i64 *req, const double *reqf,
                const double *pts, const i64 *member_offsets,
                const double *makespans, const double *busy,
                const double *last, const i64 *gap_offsets,
                const double *gaps, double *out, i64 *shut, i64 *bad) {
    i64 r, j, q, g, lane = 0, cap = 1;
    /* Scratch for one slot's gap row in seconds; under PS it is
     * compacted in place to the gaps that stay on, and off receives
     * the gaps that shut down. */
    double *stay, *off;
    for (r = 0; r < n_requests; r++) {
        i64 m = req[3 * r];
        for (j = member_offsets[m]; j < member_offsets[m + 1]; j++)
            if (gap_offsets[j + 1] - gap_offsets[j] + 1 > cap)
                cap = gap_offsets[j + 1] - gap_offsets[j] + 1;
    }
    stay = (double *)malloc((size_t)(2 * cap) * sizeof(double));
    if (stay == NULL)
        return -1;
    off = stay + cap;
    for (r = 0; r < n_requests; r++) {
        i64 m = req[3 * r], n_points = req[3 * r + 1];
        int use_sleep = req[3 * r + 2] != 0;
        double window = reqf[3 * r], sp = reqf[3 * r + 1];
        double oh = reqf[3 * r + 2];
        for (q = 0; q < n_points; q++, lane++) {
            double f = pts[3 * lane], epc = pts[3 * lane + 1];
            double ip = pts[3 * lane + 2];
            double h = window * f;
            double e_busy = 0.0, e_idle = 0.0, e_sleep = 0.0, e_over = 0.0;
            i64 n_shut = 0;
            if (makespans[m] > h * (1.0 + 1e-9)) {
                bad[0] = lane;
                bad[1] = -1;
                free(stay);
                return 1;
            }
            for (j = member_offsets[m]; j < member_offsets[m + 1]; j++) {
                const double *internal = gaps + gap_offsets[j];
                i64 n_gaps = gap_offsets[j + 1] - gap_offsets[j];
                double t = last[j];
                double at = t < 0.0 ? -t : t;
                double tol = 1e-9 * (at > 1.0 ? at : 1.0);
                if (h < t - tol) {
                    bad[0] = lane;
                    bad[1] = j;
                    free(stay);
                    return 1;
                }
                e_busy += busy[j] * epc;
                for (g = 0; g < n_gaps; g++)
                    stay[g] = internal[g] / f;
                if (h > t + tol)
                    stay[n_gaps++] = (h - t) / f;
                if (n_gaps == 0)
                    continue;
                if (!use_sleep) {
                    e_idle += pairwise(stay, n_gaps) * ip;
                } else {
                    /* Order-preserving split on the SleepModel rule. */
                    i64 n_stay = 0, k = 0;
                    for (g = 0; g < n_gaps; g++) {
                        double x = stay[g];
                        if ((oh + x * sp) < x * ip)
                            off[k++] = x;
                        else
                            stay[n_stay++] = x;
                    }
                    e_idle += pairwise(stay, n_stay) * ip;
                    e_sleep += pairwise(off, k) * sp;
                    e_over += (double)k * oh;
                    n_shut += k;
                }
            }
            out[4 * lane] = e_busy;
            out[4 * lane + 1] = e_idle;
            out[4 * lane + 2] = e_sleep;
            out[4 * lane + 3] = e_over;
            shut[lane] = n_shut;
        }
    }
    free(stay);
    return 0;
}
"""


#: How the kernel is compiled.  ``-ffp-contract=off`` keeps every
#: multiply and add a separately rounded operation, as in numpy and
#: Python: GNU C's default ``-ffp-contract=fast`` fuses ``a * b + c``
#: into an FMA wherever the target has one, which changes last bits.
#: Never add ``-ffast-math`` or ``-Ofast``: reassociation would break the
#: pairwise sums.  CI compiles the source with these flags too.
_CFLAGS = ("-std=c99", "-O2", "-ffp-contract=off")


def _compile_cached() -> Optional[str]:
    """Compile the kernel into the per-user cache; path or ``None``.

    The object name embeds a hash of the C source and of the compile
    command, so stale objects are never reused across source or flag
    revisions; concurrent builders race benignly through an atomic
    ``os.replace``.
    """
    command = ["cc", *_CFLAGS, "-fPIC", "-shared"]
    tag = hashlib.sha256(
        "\0".join([_SOURCE, *command]).encode()).hexdigest()[:16]
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
        subprocess.run(command + ["-o", tmp_so, c_path],
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


class _Binding(NamedTuple):
    """A graph's constant kernel inputs, with their data addresses.

    Addresses are valid only in the process that took them (and in
    processes ``fork``ed from it), so a binding lives in the graph's
    process-local memo (:meth:`TaskGraph.binding`), which pickling
    drops.
    """

    w: int
    succ_flat: int
    succ_offsets: int
    in_degrees: int
    topo: int
    owned: Tuple[np.ndarray, np.ndarray]  # keeps in_degrees/topo alive


def _bind(graph: TaskGraph) -> _Binding:
    flat, offsets = graph.succ_csr
    deg = np.array(graph.in_degrees, dtype=np.intp)
    topo = np.array(graph.topo_indices, dtype=np.intp)
    return _Binding(graph.weights_array.ctypes.data, flat.ctypes.data,
                    offsets.ctypes.data, deg.ctypes.data, topo.ctypes.data,
                    (deg, topo))


def _address(a: np.ndarray) -> int:
    """Data address of a writable C-contiguous array.

    About four times cheaper than ``a.ctypes.data``.
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _wrap(lib: ctypes.CDLL) -> Tuple[Callable, Callable, Callable]:
    """Python entry points over the three C routines of ``lib``."""
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    raw_plan = lib.repro_plan_schedule
    raw_plan.restype = ctypes.c_int
    raw_plan.argtypes = [i64, i64] + [ptr] * 7
    raw_levels = lib.repro_levels
    raw_levels.restype = None
    raw_levels.argtypes = [i64] + [ptr] * 6
    raw_sweep = lib.repro_sweep
    raw_sweep.restype = ctypes.c_int
    raw_sweep.argtypes = [i64] + [ptr] * 12

    def plan(graph: TaskGraph, keys: np.ndarray, n_processors: int,
             deadlines: Optional[np.ndarray]) -> tuple:
        b = graph.binding(_bind)
        n, p = graph.n, n_processors
        g = 2 * n + 2 + 2 * p  # first gap slot in f
        k0 = g + 3 * n  # keys, then room for a copy of the deadlines
        f = np.empty(k0 + 2 * n)
        f[k0:k0 + n] = keys
        base = _address(f)
        if deadlines is keys:  # EDF: the keys are the deadline vector
            d: Optional[int] = base + 8 * k0
        elif isinstance(deadlines, np.ndarray) and deadlines.shape == (n,):
            f[k0 + n:] = deadlines
            d = base + 8 * (k0 + n)
        else:
            d = None
        ix = np.empty(4 + 2 * n + 3 * p, dtype=np.intp)
        rc = raw_plan(n, p, b.w, b.succ_flat, b.succ_offsets, b.in_degrees,
                      d, base, _address(ix))
        if rc != 0:  # pragma: no cover - malloc failure
            raise MemoryError("C scheduler kernel allocation failed")
        k, e = ix[:2].tolist()
        # Keep the used prefix only: no unused gap capacity, no keys.
        f = f[:g + 3 * k].copy()
        f.setflags(write=False)
        ix.setflags(write=False)
        q = 2 + 2 * n  # bounds
        r = q + p + 1  # gap bounds
        return (f[:n], f[n:2 * n], ix[2:2 + n], ix[2 + n:q], ix[q:r],
                f[2 * n + 2:2 * n + 2 + p], f[2 * n + 2 + p:g],
                tuple(ix[r + p + 1:r + p + 1 + e].tolist()),
                f[g:g + k], f[g + k:g + 2 * k], f[g + 2 * k:], ix[r:r + p + 1],
                float(f[2 * n]), None if d is None else float(f[2 * n + 1]))

    def levels(graph: TaskGraph, deadlines: Optional[np.ndarray],
               top_levels: Optional[np.ndarray]) -> None:
        b = graph.binding(_bind)
        raw_levels(graph.n, b.topo, b.w, b.succ_flat, b.succ_offsets,
                   None if deadlines is None else _address(deadlines),
                   None if top_levels is None else _address(top_levels))

    def sweep(req: np.ndarray, reqf: np.ndarray, pts: np.ndarray,
              member_offsets: np.ndarray, makespans: np.ndarray,
              busy: np.ndarray, last: np.ndarray, gap_offsets: np.ndarray,
              gaps: np.ndarray) -> tuple:
        n_lanes = pts.shape[0]
        out = np.empty((n_lanes, 4))
        shut = np.empty(n_lanes, dtype=np.intp)
        bad = np.empty(2, dtype=np.intp)
        rc = raw_sweep(req.shape[0], req.ctypes.data, reqf.ctypes.data,
                       pts.ctypes.data, member_offsets.ctypes.data,
                       makespans.ctypes.data, busy.ctypes.data,
                       last.ctypes.data, gap_offsets.ctypes.data,
                       gaps.ctypes.data, out.ctypes.data,
                       shut.ctypes.data, bad.ctypes.data)
        if rc < 0:  # pragma: no cover - malloc failure
            raise MemoryError("C sweep kernel allocation failed")
        return out, shut, (tuple(bad.tolist()) if rc else None)

    return plan, levels, sweep


def _sweep_self_test(sweep: Callable) -> bool:
    """Differentially test the native sweep against ``np.sum`` folds.

    Two members, with and without the sleep rule: one row of 200
    internal gaps (past the pairwise split at 128), short rows, a
    gap-less slot whose last finish meets the horizon, and gaps on
    both sides of the shutdown breakeven.  The reference repeats
    :func:`repro.core.energy.schedule_energy`'s operations inline (this
    module sits below :mod:`repro.core`).  A too-short window must
    name its first lane.
    """
    gaps = np.array([1e6 / (k + 1) + 1e4 * (k % 7) for k in range(205)])
    member_offsets = np.array([0, 3, 4], dtype=np.intp)
    gap_offsets = np.array([0, 200, 205, 205, 205], dtype=np.intp)
    busy = np.array([7.0e6, 3.3e6, 1.1e6, 2.5e6])
    last = np.array([9.1e6, 8.7e6, 1.0e7, 2.0e6])
    makespans = np.array([1.0e7, 2.0e6])
    req = np.array([[0, 2, 0], [0, 2, 1], [1, 1, 1]], dtype=np.intp)
    reqf = np.array([[0.01, 0.0, 0.0], [0.012, 50e-6, 483e-6],
                     [0.003, 50e-6, 483e-6]])
    pts = np.array([[1.0e9, 3.1e-10, 0.11], [2.0e9, 5.3e-10, 0.23],
                    [1.0e9, 3.1e-10, 0.11], [2.0e9, 5.3e-10, 0.23],
                    [1.5e9, 4.2e-10, 0.17]])
    want = []
    lane = 0
    for (m, n_points, use_sleep), (window, sp, oh) in zip(
            req.tolist(), reqf.tolist()):
        for _ in range(n_points):
            f, epc, ip = pts[lane].tolist()
            lane += 1
            h = window * f
            e = [0.0, 0.0, 0.0, 0.0, 0]
            for j in range(member_offsets[m], member_offsets[m + 1]):
                e[0] += float(busy[j]) * epc
                t = float(last[j])
                row = gaps[gap_offsets[j]:gap_offsets[j + 1]]
                if h > t + 1e-9 * max(1.0, abs(t)):
                    row = np.append(row, h - t)
                row = row / f
                if row.size == 0:
                    continue
                if not use_sleep:
                    e[1] += float(row.sum()) * ip
                    continue
                off = (oh + row * sp) < row * ip
                e[1] += float(row[~off].sum()) * ip
                e[2] += float(row[off].sum()) * sp
                e[3] += int(off.sum()) * oh
                e[4] += int(off.sum())
            want.append(e)
    arrays = (member_offsets, makespans, busy, last, gap_offsets, gaps)
    out, shut, bad = sweep(req, reqf, pts, *arrays)
    got = [row + [k] for row, k in zip(out.tolist(), shut.tolist())]
    if bad is not None or got != want or not 0 < shut.sum() < 205:
        return False
    short = np.array([[0.01, 0.0, 0.0], [1e-3, 0.0, 0.0]])
    return sweep(req[[0, 2]], short, pts[[0, 1, 4]], *arrays)[2] == (2, -1)


def _self_test(plan: Callable, levels: Optional[Callable] = None,
               sweep: Optional[Callable] = None) -> bool:
    """Differentially test the loaded routines against the Python ones.

    ``plan`` is checked against the ``heapq`` loop with
    ``Schedule.from_arrays`` and ``required_reference_frequency``: on a
    fork–join graph on two processors that exercises every code path
    of the event loop (ready-queue ties, a stall — three ready tasks,
    two processors — the simultaneous-completion drain, and processor
    reuse), on a zero-weight start tie on one processor, with more
    processors than tasks (non-positive deadlines included), and on 70
    independent tasks that keep free processors in two bitset words;
    ``levels`` against the Python ALAP and top-level loops, with an
    override.
    """
    keys = np.array([0.0, 3.0, 1.0, 2.0, 4.0])
    w = [2.0, 3.0, 2.0, 2.0, 1.0]
    succs = [[1, 2, 3], [4], [4], [4], []]
    fork_join = TaskGraph(dict(enumerate(w)),
                          [(v, s) for v in range(5) for s in succs[v]])
    tie = TaskGraph({"B": 3.0, "A": 0.0})
    tie_keys = np.array([10.0, 1.0])
    wide = TaskGraph({i: float(i % 2) for i in range(70)})
    wide_keys = np.zeros(70)
    for graph, k, d, n_procs in (
            (fork_join, keys, keys + 10.0, 2),
            (tie, tie_keys, np.array([2.0, 0.0]), 1),
            (tie, tie_keys, np.array([-1.0, 5.0]), 3),
            (wide, wide_keys, wide_keys, 66)):
        ref = Schedule.from_arrays(
            graph, n_procs, *heapq_schedule(
                k.tolist(), graph.weights_list, graph.succ_indices,
                graph.in_degrees, n_procs))
        got = plan(graph, k, n_procs, d)
        if not same_kernel(Schedule._adopt(graph, n_procs, *got), ref) \
                or got[-1].hex() != \
                ref.required_reference_frequency(d).hex():
            return False
    if levels is not None:
        d = np.array([9.0, 9.0, 9.0, 9.0, 7.0])
        want_d = np.array(_alap_loop(fork_join, d.tolist()))
        tl = np.empty(5)
        levels(fork_join, d, tl)
        if d.tobytes() != want_d.tobytes() or \
                tl.tobytes() != _top_levels_loop(fork_join).tobytes():
            return False
    return sweep is None or _sweep_self_test(sweep)


def _load() -> Optional[Tuple[Callable, Callable, Callable]]:
    if _DISABLED:
        return None
    try:
        routines = _wrap(ctypes.CDLL(_compile_cached()))
        if not _self_test(*routines):  # pragma: no cover - defends builds
            return None
        return routines
    except Exception:  # pragma: no cover - no compiler, bad toolchain...
        return None


_plan, _levels, _sweep = _load() or (None, None, None)

#: True when the C routines (:func:`plan_schedule_c`, :func:`levels_c`,
#: :func:`sweep_c`) dispatch to compiled code.
CKERNEL_ACTIVE = _plan is not None


def plan_schedule_c(graph: TaskGraph, keys: np.ndarray, n_processors: int,
                    deadlines: Optional[np.ndarray] = None) -> tuple:
    """One list schedule and its whole ``Schedule`` kernel, in one call.

    Runs the event loop on ``keys`` (one per dense node index, no NaN)
    and derives everything :meth:`Schedule._init_arrays` computes, in
    the argument order of :meth:`Schedule._adopt`.  The arrays are
    read-only and byte-identical to ``Schedule.from_arrays`` over
    :func:`~repro.sched.eventloop.heapq_schedule`'s arrays.

    The last element is the schedule's required-frequency ratio against
    ``deadlines``, bitwise equal to
    :meth:`Schedule.required_reference_frequency`, or ``None`` when
    ``deadlines`` is not a length-``graph.n`` array.
    """
    if _plan is None:  # pragma: no cover - guarded by callers
        raise RuntimeError("C scheduler kernel is not available")
    return _plan(graph, keys, n_processors, deadlines)


def levels_c(graph: TaskGraph, deadlines: Optional[np.ndarray],
             top_levels: Optional[np.ndarray]) -> None:
    """ALAP deadlines and top levels in one native call.

    Both arguments, when given, are writable C-contiguous float64
    vectors of length ``graph.n``.  ``deadlines`` is prefilled with the
    graph deadline (overrides applied) and propagated in place;
    ``top_levels`` receives the top levels.  Both equal the Python
    loops of :mod:`repro.graphs.analysis` bit for bit.
    """
    if _levels is None:  # pragma: no cover - guarded by callers
        raise RuntimeError("C scheduler kernel is not available")
    _levels(graph, deadlines, top_levels)


def sweep_c(req: np.ndarray, reqf: np.ndarray, pts: np.ndarray,
            member_offsets: np.ndarray, makespans: np.ndarray,
            busy: np.ndarray, last: np.ndarray, gap_offsets: np.ndarray,
            gaps: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[int, int]]]:
    """Every (request, point) lane of a batch of ladder sweeps, natively.

    The request table ``req`` holds ``(member, n_points, sleep flag)``
    rows (``intp``, shape ``(requests, 3)``) and ``reqf`` the matching
    ``(window seconds, sleep power, overhead energy)`` rows; ``pts``
    holds one ``(frequency, energy per cycle, idle power)`` row per
    lane, lanes in request-major order.  The schedule side is the CSR
    layout of :class:`~repro.core.batch.ScheduleBatch`.  Arrays are
    passed on as C-contiguous ``float64`` / ``intp``; inconsistent
    shapes or a member index out of range raise ``ValueError``.

    Returns ``(out, shutdowns, bad)``: ``out`` holds one ``(busy, idle,
    sleep, overhead)`` row per lane, each lane computed with the
    operations of :func:`repro.core.energy.schedule_energy` in the same
    order, so bitwise equal to it.  ``bad`` is ``None``, or ``(lane,
    slot)`` for the first lane whose window is too short (``slot`` is
    -1 when the makespan guard fails, else the first employed slot
    whose last finish lies past the horizon); the other rows are then
    undefined.
    """
    if _sweep is None:  # pragma: no cover - guarded by callers
        raise RuntimeError("C scheduler kernel is not available")
    req, member_offsets, gap_offsets = (
        np.ascontiguousarray(a, dtype=np.intp)
        for a in (req, member_offsets, gap_offsets))
    reqf, pts, makespans, busy, last, gaps = (
        np.ascontiguousarray(a, dtype=np.float64)
        for a in (reqf, pts, makespans, busy, last, gaps))
    n_slots = busy.shape[0]
    if req.ndim != 2 or req.shape[1] != 3 or reqf.shape != req.shape \
            or pts.ndim != 2 or pts.shape[1] != 3 \
            or pts.shape[0] != int(req[:, 1].sum()) \
            or member_offsets.shape != (makespans.shape[0] + 1,) \
            or last.shape != (n_slots,) \
            or gap_offsets.shape != (n_slots + 1,) \
            or (req.size and not 0 <= req[:, 0].min() <= req[:, 0].max()
                < makespans.shape[0]) \
            or member_offsets[-1] != n_slots \
            or gap_offsets[-1] != gaps.shape[0]:
        raise ValueError("inconsistent sweep tables")
    return _sweep(req, reqf, pts, member_offsets, makespans, busy, last,
                  gap_offsets, gaps)
