"""Optional C accelerator for the planning layer and the ladder sweep.

The C source, ``ckernel.c`` next to this module (package data), has
three routines, compiled on first use with the system C compiler and
loaded through :mod:`ctypes` once, at import; the Python function
behind each routine calls it directly:

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
concurrent workers race benignly.  A package without ``ckernel.c``
runs the Python references; ``/metrics`` reports which backend runs
as ``sched.ckernel_active``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Any, NamedTuple, Optional, Tuple

import numpy as np

from ..graphs.analysis import _alap_loop, _top_levels_loop
from ..graphs.dag import TaskGraph
from .eventloop import heapq_schedule
from .schedule import Schedule, same_kernel

__all__ = ["CKERNEL_ACTIVE", "levels_c", "plan_schedule_c", "sweep_c"]

# Backend selection only — both backends are bitwise-identical, so this
# flag cannot affect results, reports, or cache bytes.
_DISABLED = bool(os.environ.get("REPRO_NO_CKERNEL"))  # repro: noqa[DET003]

#: How the kernel is compiled.  ``-ffp-contract=off`` keeps every
#: multiply and add a separately rounded operation, as in numpy and
#: Python: GNU C's default ``-ffp-contract=fast`` fuses ``a * b + c``
#: into an FMA wherever the target has one, which changes last bits.
#: Never add ``-ffast-math`` or ``-Ofast``: reassociation would break the
#: pairwise sums.  CI compiles the source with these flags too.
_CFLAGS = ("-std=c99", "-O2", "-ffp-contract=off")


#: The kernel's C source, shipped as package data next to this module.
_C_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "ckernel.c")


def _compile_cached() -> str:
    """Compile the kernel into the per-user cache; the object's path.

    The object name embeds a hash of the C source and of the compile
    command, so stale objects are never reused across source or flag
    revisions; concurrent builders race benignly through an atomic
    ``os.replace``.
    """
    command = ["cc", *_CFLAGS, "-fPIC", "-shared"]
    with open(_C_FILE, "rb") as f:
        source = f.read()
    tag = hashlib.sha256(b"\0".join(
        [source, *(c.encode() for c in command)])).hexdigest()[:16]
    cache_dir = os.path.join(
        os.path.expanduser("~"), ".cache", "repro")
    so_path = os.path.join(cache_dir, f"listsched-{tag}.so")
    if os.path.exists(so_path):
        return so_path
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp_so = tempfile.mkstemp(suffix=".so", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run(command + ["-o", tmp_so, _C_FILE],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp_so, so_path)
    finally:
        try:
            os.remove(tmp_so)
        except OSError:
            pass
    return so_path


def _open() -> Any:
    """The compiled kernel with its three routines typed, or ``None``."""
    if _DISABLED:
        return None
    try:
        lib = ctypes.CDLL(_compile_cached())
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.repro_plan_schedule.restype = ctypes.c_int
        lib.repro_plan_schedule.argtypes = [i64, i64] + [ptr] * 7
        lib.repro_levels.restype = None
        lib.repro_levels.argtypes = [i64] + [ptr] * 6
        lib.repro_sweep.restype = ctypes.c_int
        lib.repro_sweep.argtypes = [i64] + [ptr] * 12
        return lib
    except Exception:  # pragma: no cover - no compiler, bad toolchain...
        return None


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
    rc = _lib.repro_plan_schedule(
        n, p, b.w, b.succ_flat, b.succ_offsets, b.in_degrees, d, base,
        _address(ix))
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


def levels_c(graph: TaskGraph, deadlines: Optional[np.ndarray],
             top_levels: Optional[np.ndarray]) -> None:
    """ALAP deadlines and top levels in one native call.

    Both arguments, when given, are writable C-contiguous float64
    vectors of length ``graph.n``.  ``deadlines`` is prefilled with the
    graph deadline (overrides applied) and propagated in place;
    ``top_levels`` receives the top levels.  Both equal the Python
    loops of :mod:`repro.graphs.analysis` bit for bit.
    """
    b = graph.binding(_bind)
    _lib.repro_levels(
        graph.n, b.topo, b.w, b.succ_flat, b.succ_offsets,
        None if deadlines is None else _address(deadlines),
        None if top_levels is None else _address(top_levels))


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
    n_lanes = pts.shape[0]
    out = np.empty((n_lanes, 4))
    shut = np.empty(n_lanes, dtype=np.intp)
    bad = np.empty(2, dtype=np.intp)
    rc = _lib.repro_sweep(
        req.shape[0], req.ctypes.data, reqf.ctypes.data, pts.ctypes.data,
        member_offsets.ctypes.data, makespans.ctypes.data,
        busy.ctypes.data, last.ctypes.data, gap_offsets.ctypes.data,
        gaps.ctypes.data, out.ctypes.data, shut.ctypes.data,
        bad.ctypes.data)
    if rc < 0:  # pragma: no cover - malloc failure
        raise MemoryError("C sweep kernel allocation failed")
    return out, shut, (tuple(bad.tolist()) if rc else None)


def _sweep_self_test() -> bool:
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
    out, shut, bad = sweep_c(req, reqf, pts, *arrays)
    got = [row + [k] for row, k in zip(out.tolist(), shut.tolist())]
    if bad is not None or got != want or not 0 < shut.sum() < 205:
        return False
    short = np.array([[0.01, 0.0, 0.0], [1e-3, 0.0, 0.0]])
    return sweep_c(req[[0, 2]], short, pts[[0, 1, 4]], *arrays)[2] == (2, -1)


def _self_test() -> bool:
    """Differentially test the loaded routines against the Python ones.

    :func:`plan_schedule_c` is checked against the ``heapq`` loop with
    ``Schedule.from_arrays`` and ``required_reference_frequency``: on a
    fork–join graph on two processors that exercises every code path
    of the event loop (ready-queue ties, a stall — three ready tasks,
    two processors — the simultaneous-completion drain, and processor
    reuse), on a zero-weight start tie on one processor, with more
    processors than tasks (non-positive deadlines included), and on 70
    independent tasks that keep free processors in two bitset words;
    :func:`levels_c` against the Python ALAP and top-level loops, with
    an override.  :func:`_sweep_self_test` covers :func:`sweep_c`.
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
        got = plan_schedule_c(graph, k, n_procs, d)
        if not same_kernel(Schedule._adopt(graph, n_procs, *got), ref) \
                or got[-1].hex() != \
                ref.required_reference_frequency(d).hex():
            return False
    d = np.array([9.0, 9.0, 9.0, 9.0, 7.0])
    want_d = np.array(_alap_loop(fork_join, d.tolist()))
    tl = np.empty(5)
    levels_c(fork_join, d, tl)
    return d.tobytes() == want_d.tobytes() and \
        tl.tobytes() == _top_levels_loop(fork_join).tobytes()


#: The loaded kernel, or ``None`` when the Python references run.
_lib: Any = _open()
try:
    if _lib is not None and not (_self_test() and _sweep_self_test()):
        _lib = None  # pragma: no cover - defends builds
except Exception:  # pragma: no cover - a self-test that raises
    _lib = None

#: True when the C routines (:func:`plan_schedule_c`, :func:`levels_c`,
#: :func:`sweep_c`) dispatch to compiled code.
CKERNEL_ACTIVE = _lib is not None
