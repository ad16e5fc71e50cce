"""Differential tests: the ctypes C kernel vs the ``heapq`` loop.

:mod:`repro.sched.ckernel` claims its compiled event loop replays
:func:`repro.sched.eventloop.heapq_schedule` over strictly totally
ordered array heaps — any correct min-heap pops the same sequence — and
that the only floating-point arithmetic is the same
``finish = time + w[v]`` IEEE-754 addition.
That claim is what lets ``list_schedule`` dispatch to the C backend
without perturbing a single golden SHA, so it is asserted here with
array equality (``==``, not tolerance) over drawn graphs, policies and
processor counts, plus the dispatch/gate plumbing around it.

When the kernel could not be built (no system compiler) every
differential test is skipped; the gate tests still run.
"""

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.analysis import (
    _alap_loop,
    _top_levels_loop,
    critical_path_length,
    top_levels,
)
from repro.graphs.dag import TaskGraph
from repro.graphs.generators import stg_random_graph
from repro.sched import ckernel
from repro.sched import deadlines as deadlines_mod
from repro.sched.deadlines import InfeasibleDeadlineError, task_deadlines
from repro.sched.eventloop import heapq_schedule
from repro.sched.list_scheduler import list_schedule
from repro.sched.priorities import priority_keys
from repro.sched.schedule import Schedule, same_kernel

needs_ckernel = pytest.mark.skipif(
    not ckernel.CKERNEL_ACTIVE,
    reason="C scheduler kernel unavailable (no compiler?)")


def _heapq_arrays(graph, n_procs, deadlines, policy="edf"):
    return heapq_schedule(priority_keys(graph, deadlines, policy).tolist(),
                          graph.weights_list, graph.succ_indices,
                          graph.in_degrees, n_procs)


def _plan_arrays(graph, n_procs, deadlines, policy="edf"):
    """The fused call's ``(start, finish, processor)`` arrays."""
    out = ckernel.plan_schedule_c(
        graph, priority_keys(graph, deadlines, policy), n_procs, deadlines)
    return out[0], out[1], out[2]


def _assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=5_000))
    n = draw(st.sampled_from([5, 12, 25, 60]))
    n_procs = draw(st.sampled_from([1, 2, 4, 9, 16]))
    factor = draw(st.sampled_from([1.2, 2.0, 5.0]))
    g = stg_random_graph(n, seed).scaled(3.1e6)
    d = task_deadlines(g, factor * critical_path_length(g))
    return g, n_procs, d


@needs_ckernel
class TestCKernelMatchesPython:
    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_identical_arrays(self, inst):
        g, n_procs, d = inst
        _assert_same_bytes(_plan_arrays(g, n_procs, d),
                           _heapq_arrays(g, n_procs, d))

    @given(instances(), st.sampled_from(["edf", "hlfet", "fifo"]))
    @settings(max_examples=30, deadline=None)
    def test_identical_across_policies(self, inst, policy):
        g, n_procs, d = inst
        _assert_same_bytes(_plan_arrays(g, n_procs, d, policy),
                           _heapq_arrays(g, n_procs, d, policy))

    def test_does_not_mutate_inputs(self):
        """The C signature takes const inputs; in_degrees especially
        must survive (the kernel decrements its own copy)."""
        g = stg_random_graph(30, 5).scaled(3.1e6)
        d = task_deadlines(g, 2.0 * critical_path_length(g))
        keys = priority_keys(g, d)
        flat, offs = g.succ_csr
        binding = g.binding(ckernel._bind)
        inputs = (keys, d, g.weights_array, flat, offs, *binding.owned)
        snapshots = [a.copy() for a in inputs]
        ckernel.plan_schedule_c(g, keys, 4, d)
        for a, snap in zip(inputs, snapshots):
            assert a.tobytes() == snap.tobytes()


@needs_ckernel
class TestListScheduleDispatch:
    def test_all_backends_agree_end_to_end(self, monkeypatch):
        """list_schedule through the C kernel vs forced heapq loop."""
        g = stg_random_graph(40, 11).scaled(3.1e6)
        d = task_deadlines(g, 2.0 * critical_path_length(g))
        import repro.sched.list_scheduler as ls

        monkeypatch.setattr(ls, "CKERNEL_ACTIVE", True)
        via_c = list_schedule(g, 4, d)
        monkeypatch.setattr(ls, "CKERNEL_ACTIVE", False)
        via_heapq = list_schedule(g, 4, d)
        assert np.array_equal(via_c.start_times, via_heapq.start_times)
        assert np.array_equal(via_c.finish_times, via_heapq.finish_times)
        assert np.array_equal(via_c.task_processors,
                              via_heapq.task_processors)
        assert via_c.makespan == via_heapq.makespan
        assert via_c.employed_processors == via_heapq.employed_processors


class TestGate:
    def test_env_gate_disables_kernel(self):
        """REPRO_NO_CKERNEL must force the pure-Python path."""
        if os.environ.get("REPRO_NO_CKERNEL"):
            assert not ckernel.CKERNEL_ACTIVE
        if ckernel._DISABLED:
            assert ckernel._plan is None

    def test_inactive_kernel_raises_cleanly(self, monkeypatch):
        monkeypatch.setattr(ckernel, "_plan", None)
        with pytest.raises(RuntimeError):
            ckernel.plan_schedule_c(TaskGraph({"only": 1.0}),
                                    np.zeros(1), 1)

    def test_self_test_passes_on_loaded_kernel(self):
        if ckernel._plan is None:
            pytest.skip("kernel not loaded")
        assert ckernel._self_test(ckernel._plan)

    def test_disabled_subprocess_never_activates(self):
        """A fresh interpreter under REPRO_NO_CKERNEL stays on Python."""
        import subprocess
        import sys

        env = dict(os.environ, REPRO_NO_CKERNEL="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p)
        code = ("from repro.sched.ckernel import CKERNEL_ACTIVE; "
                "assert not CKERNEL_ACTIVE; print('ok')")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0 and out.stdout.strip() == "ok"


# ----------------------------------------------------------------------
# The fused planning call and the levels call against their references
# ----------------------------------------------------------------------

@st.composite
def small_dags(draw):
    """Small DAGs with many weight ties, zero weights included."""
    n = draw(st.integers(min_value=1, max_value=14))
    weights = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 2.5e6]),
                            min_size=n, max_size=n))
    # Edges follow a drawn topological order, so it differs from the
    # dense index order.
    topo = draw(st.permutations(range(n)))
    pairs = [(topo[a], topo[b]) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=2 * n)) if pairs else []
    return TaskGraph(dict(enumerate(weights)), edges)


def _reference_schedule(graph, keys, n_procs):
    arrays = heapq_schedule(keys.tolist(), graph.weights_list,
                            graph.succ_indices, graph.in_degrees, n_procs)
    return Schedule.from_arrays(graph, n_procs, *arrays)


def _fused_schedule(graph, keys, n_procs):
    return Schedule._adopt(graph, n_procs,
                           *ckernel.plan_schedule_c(graph, keys, n_procs))


@needs_ckernel
class TestFusedPlanMatchesReference:
    @given(small_dags(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_kernel_bytes_identical(self, g, data):
        keys = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0, 5.0, 7.5]),
            min_size=g.n, max_size=g.n)))
        n_procs = data.draw(st.integers(min_value=1, max_value=g.n + 3))
        fused = _fused_schedule(g, keys, n_procs)
        assert same_kernel(fused, _reference_schedule(g, keys, n_procs))
        for name in ("start_times", "finish_times", "task_processors",
                     "proc_busy_cycles", "proc_last_finish"):
            assert not getattr(fused, name).flags.writeable

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_list_schedule_identical_on_stg(self, inst):
        g, n_procs, d = inst
        keys = priority_keys(g, d)
        assert same_kernel(list_schedule(g, n_procs, d),
                           _reference_schedule(g, keys, n_procs))

    def test_one_task_graph(self):
        g = TaskGraph({"only": 4.0})
        for n_procs in (1, 3):
            keys = np.array([1.0])
            assert same_kernel(_fused_schedule(g, keys, n_procs),
                               _reference_schedule(g, keys, n_procs))

    def test_all_zero_weights(self):
        g = TaskGraph({i: 0.0 for i in range(6)}, [(0, 3), (1, 3)])
        keys = np.array([3.0, 2.0, 1.0, 0.0, 2.0, 1.0])
        for n_procs in (1, 2, 8):
            assert same_kernel(_fused_schedule(g, keys, n_procs),
                               _reference_schedule(g, keys, n_procs))


def _wide_graph():
    """More than 128 processors' worth of parallel work, with edges.

    130 equal-key independent tasks (weights 1..3, so processors free
    at different instants), ten zero-weight tasks keyed -inf/+inf that
    join pairs of them, and a second layer of 30 tasks with keys drawn
    from {-inf, 0, 2, +inf} — every free-processor pop and push crosses
    the 64-bit words of the bitset.
    """
    weights = {i: float(1 + i % 3) for i in range(130)}
    weights.update({130 + j: 0.0 for j in range(10)})
    weights.update({140 + j: float(1 + j % 4) for j in range(30)})
    edges = [(i, 130 + i % 10) for i in range(0, 130, 7)]
    edges += [(130 + j % 10, 140 + j) for j in range(30)]
    edges += [(2 * j + 1, 140 + j) for j in range(30)]
    keys = np.zeros(170)
    keys[130:140] = [-np.inf, np.inf] * 5
    keys[140:] = [(-np.inf, 0.0, 2.0, np.inf)[j % 4] for j in range(30)]
    return TaskGraph(weights, edges), keys


@needs_ckernel
class TestKernelEdges:
    """Processor counts at the bitset's word boundaries, and the ratio."""

    @pytest.mark.parametrize("n_procs", [1, 63, 64, 65, 127, 128, 129, 173])
    def test_word_boundaries(self, n_procs):
        g, keys = _wide_graph()
        assert n_procs == 173 or n_procs < g.n  # 173 is n + 3
        fused = _fused_schedule(g, keys, n_procs)
        assert same_kernel(fused, _reference_schedule(g, keys, n_procs))
        # The work keeps every processor busy at once at t = 0.
        assert fused.employed_processors == min(n_procs, 130)
        want = heapq_schedule(keys.tolist(), g.weights_list,
                              g.succ_indices, g.in_degrees, n_procs)
        _assert_same_bytes((fused.start_times, fused.finish_times,
                            fused.task_processors), want)

    @given(small_dags(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_infinite_keys(self, g, data):
        """±inf keys are totally ordered, so the backends agree."""
        keys = np.array(data.draw(st.lists(
            st.sampled_from([-np.inf, 0.0, 1.0, np.inf]),
            min_size=g.n, max_size=g.n)))
        n_procs = data.draw(st.integers(min_value=1, max_value=g.n + 3))
        assert same_kernel(_fused_schedule(g, keys, n_procs),
                           _reference_schedule(g, keys, n_procs))

    @given(small_dags(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_ratio_is_required_reference_frequency(self, g, data):
        """Zero, negative, NaN and infinite deadlines included."""
        keys = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0, 5.0]), min_size=g.n, max_size=g.n)))
        d = np.array(data.draw(st.lists(
            st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0, 1e7, np.inf,
                             np.nan]),
            min_size=g.n, max_size=g.n)))
        n_procs = data.draw(st.integers(min_value=1, max_value=g.n + 3))
        ref = _reference_schedule(g, keys, n_procs)
        for deadlines in (d, keys):  # a separate vector, and the keys
            ratio = ckernel.plan_schedule_c(g, keys, n_procs, deadlines)[-1]
            assert ratio.hex() == \
                ref.required_reference_frequency(deadlines).hex()

    @pytest.mark.parametrize("d, want", [
        ([2.0], 2.0), ([0.0], np.inf), ([-1.0], np.inf), ([8.0], 0.5)])
    def test_ratio_of_one_task(self, d, want):
        g = TaskGraph({"only": 4.0})
        s = list_schedule(g, 2, np.array(d))
        assert s._build_ratio == want
        assert s._build_ratio == s.required_reference_frequency(np.array(d))

    def test_ratio_of_one_zero_weight_task(self):
        g = TaskGraph({"only": 0.0})
        for d in ([0.0], [-1.0], [3.0]):
            s = list_schedule(g, 1, np.array(d))
            assert s._build_ratio == 0.0
            assert s.required_reference_frequency(np.array(d)) == 0.0

    def test_ratio_of_no_tasks(self):
        """A graph always has a task; the routine itself handles none."""
        empty = np.zeros(1, dtype=np.intp)

        class NoTasks:
            n = 0

            @staticmethod
            def binding(_):
                addr = empty.ctypes.data
                return ckernel._Binding(addr, addr, addr, addr, addr,
                                        (empty, empty))

        out = ckernel.plan_schedule_c(NoTasks(), np.empty(0), 2, np.empty(0))
        assert out[-1] == 0.0 and out[-2] == 0.0
        finishes = SimpleNamespace(_finish=np.empty(0))
        assert Schedule.required_reference_frequency(
            finishes, np.empty(0)) == 0.0

    def test_no_ratio_without_a_deadline_vector(self):
        g, keys = _wide_graph()
        for d in (None, np.zeros(3), list(keys)):
            assert ckernel.plan_schedule_c(g, keys, 4, d)[-1] is None
        assert list_schedule(g, 4, policy="hlfet")._build_ratio == np.inf

    def test_heapq_path_brings_no_ratio(self, monkeypatch):
        import repro.sched.list_scheduler as ls

        g, keys = _wide_graph()
        monkeypatch.setattr(ls, "CKERNEL_ACTIVE", False)
        assert list_schedule(g, 4, keys)._build_ratio is None


@needs_ckernel
class TestLevelsMatchReference:
    @given(small_dags())
    @settings(max_examples=100, deadline=None)
    def test_top_levels_identical(self, g):
        tl = top_levels(g)
        assert tl.tobytes() == _top_levels_loop(g).tobytes()

    @given(small_dags(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_deadlines_identical(self, g, data):
        deadline = data.draw(st.sampled_from([0.5, 4.0, 9.0, 1e7]))
        ids = list(g.node_ids)
        chosen = data.draw(st.lists(st.sampled_from(ids), unique=True,
                                    max_size=3))
        overrides = {v: data.draw(st.sampled_from([0.25, 3.0, 20.0]))
                     for v in chosen}
        check = data.draw(st.booleans())
        with pytest.MonkeyPatch.context() as mp:
            outcomes = []
            for active in (True, False):
                mp.setattr(deadlines_mod, "CKERNEL_ACTIVE", active)
                try:
                    d = task_deadlines(g, deadline, overrides=overrides,
                                       check_feasible=check)
                    outcomes.append(("ok", d.tobytes()))
                except InfeasibleDeadlineError as exc:
                    outcomes.append(("infeasible", str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_native_levels_fill_both_vectors(self):
        g = stg_random_graph(60, 3).scaled(3.1e6)
        deadline = 2.0 * critical_path_length(g)
        d = np.full(g.n, deadline)
        tl = np.empty(g.n)
        ckernel.levels_c(g, d, tl)
        want = np.array(_alap_loop(g, [deadline] * g.n))
        assert d.tobytes() == want.tobytes()
        assert tl.tobytes() == _top_levels_loop(g).tobytes()

    def test_infeasible_message_identical(self, monkeypatch):
        g = stg_random_graph(40, 2).scaled(3.1e6)
        deadline = 0.5 * critical_path_length(g)
        with pytest.raises(InfeasibleDeadlineError) as native:
            task_deadlines(g, deadline)
        monkeypatch.setattr(deadlines_mod, "CKERNEL_ACTIVE", False)
        with pytest.raises(InfeasibleDeadlineError) as python:
            task_deadlines(g, deadline)
        assert str(native.value) == str(python.value)

    def test_self_test_covers_every_routine(self):
        assert ckernel._self_test(ckernel._plan, ckernel._levels,
                                  ckernel._sweep)


# ----------------------------------------------------------------------
# The native ladder sweep: its pairwise sum and its compile flags
# ----------------------------------------------------------------------

def _native_row_sum(values):
    """A vector's sum as the native sweep folds a gap row.

    One slot whose internal gaps are ``values``, at frequency 1 and
    idle power 1, with the horizon at its last finish (no trailing gap).
    """
    out, shut, bad = ckernel.sweep_c(
        np.array([[0, 1, 0]], dtype=np.intp),   # member 0, 1 point
        np.zeros((1, 3)),                       # window 0: horizon 0
        np.array([[1.0, 0.0, 1.0]]),            # f, energy/cycle, idle
        np.array([0, 1], dtype=np.intp), np.zeros(1),
        np.zeros(1), np.zeros(1),               # busy, last finish
        np.array([0, values.size], dtype=np.intp),
        np.ascontiguousarray(values, dtype=np.float64))
    assert bad is None and shut[0] == 0
    return out[0, 1]


@needs_ckernel
class TestNativeSweep:
    def test_pairwise_port_matches_np_sum(self):
        rng = np.random.default_rng(19)
        lengths = rng.integers(0, 700, 300).tolist() + \
            [8191, 8192, 8193, 16_385, 100_003]
        for n in lengths:
            v = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, n)
            assert _native_row_sum(v) == float(np.sum(v)), n
            masked = v[rng.random(n) < 0.5]  # the stay/shut compaction
            assert _native_row_sum(masked) == float(np.sum(masked)), n

    def test_first_bad_lane_is_reported(self):
        """The makespan guard first, then the slots in order."""
        member_offsets = np.array([0, 2], dtype=np.intp)
        no_gaps = (np.array([0, 0, 0], dtype=np.intp), np.empty(0))
        req = np.array([[0, 2, 0]], dtype=np.intp)
        pts = np.array([[1.0, 1.0, 1.0], [0.5, 1.0, 1.0]])
        # Lane 1's horizon (3 cycles) is shorter than the makespan.
        assert ckernel.sweep_c(
            req, np.array([[6.0, 0.0, 0.0]]), pts, member_offsets,
            np.array([5.0]), np.ones(2), np.array([5.0, 4.0]),
            *no_gaps)[2] == (1, -1)
        # The makespan passes within its tolerance; slot 1 does not.
        assert ckernel.sweep_c(
            np.array([[0, 1, 0]], dtype=np.intp),
            np.array([[5.0, 0.0, 0.0]]), pts[:1].copy(), member_offsets,
            np.array([5.0]), np.ones(2), np.array([4.0, 5.0 + 1e-8]),
            *no_gaps)[2] == (0, 1)


    def test_inconsistent_tables_are_rejected(self):
        """Shapes and member indices are checked before any pointer
        reaches C."""
        ok = dict(req=np.array([[0, 1, 0]]), reqf=np.zeros((1, 3)),
                  pts=np.ones((1, 3)), member_offsets=np.array([0, 1]),
                  makespans=np.zeros(1), busy=np.zeros(1), last=np.zeros(1),
                  gap_offsets=np.array([0, 2]), gaps=np.ones(2))
        assert ckernel.sweep_c(**ok)[2] is None
        for key, bad in (("pts", np.ones((2, 3))),
                         ("req", np.array([[1, 1, 0]])),
                         ("req", np.array([0, 1, 0])),
                         ("gap_offsets", np.array([0, 3])),
                         ("member_offsets", np.array([0, 1, 1]))):
            with pytest.raises(ValueError, match="inconsistent"):
                ckernel.sweep_c(**dict(ok, **{key: bad}))


class TestCompileFlags:
    def test_no_contraction_no_fast_math(self):
        """FMA contraction or reassociation would change last bits."""
        assert "-ffp-contract=off" in ckernel._CFLAGS
        for flag in ckernel._CFLAGS:
            assert flag != "-Ofast"
            assert not flag.startswith("-ffast-math")
            assert not flag.startswith("-funsafe-math")
            assert not flag.startswith("-fassociative-math")

    def test_cache_tag_covers_the_flags(self, monkeypatch):
        """A flag change must not reuse an object built without it."""
        monkeypatch.setattr(ckernel.os.path, "exists", lambda _: True)
        before = ckernel._compile_cached()
        monkeypatch.setattr(ckernel, "_CFLAGS",
                            ckernel._CFLAGS + ("-DREPRO_TAG_PROBE",))
        assert ckernel._compile_cached() != before


# ----------------------------------------------------------------------
# The per-graph binding never leaves its process
# ----------------------------------------------------------------------

def _schedule_in_child(payload):
    """Unpickle a graph in a fresh interpreter and schedule it."""
    g = pickle.loads(payload)
    assert g._binding is None
    d = task_deadlines(g, 2.0 * critical_path_length(g))
    s = list_schedule(g, 3, d)
    return (s.start_times, s.finish_times, s.task_processors,
            s.proc_busy_cycles, s.internal_gap_cycles, s.makespan)


@needs_ckernel
class TestBindingStaysInProcess:
    def test_pickle_drops_binding(self):
        g = stg_random_graph(30, 4).scaled(3.1e6)
        d = task_deadlines(g, 2.0 * critical_path_length(g))
        before = list_schedule(g, 3, d)
        assert g._binding is not None
        restored = pickle.loads(pickle.dumps(g))
        assert restored._binding is None
        # Only the definition ships; derived caches are rebuilt.
        assert restored._succ_csr is None and restored._in_degrees is None
        after = list_schedule(restored, 3, d)
        assert same_kernel(before, after)

    def test_spawned_process_schedules_identically(self):
        g = stg_random_graph(30, 4).scaled(3.1e6)
        d = task_deadlines(g, 2.0 * critical_path_length(g))
        s = list_schedule(g, 3, d)
        assert g._binding is not None
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            got = pool.submit(_schedule_in_child, pickle.dumps(g)).result(
                timeout=120)
        want = (s.start_times, s.finish_times, s.task_processors,
                s.proc_busy_cycles, s.internal_gap_cycles, s.makespan)
        assert pickle.dumps(got) == pickle.dumps(want)
