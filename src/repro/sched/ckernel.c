
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
