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

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.analysis import critical_path_length
from repro.graphs.generators import stg_random_graph
from repro.sched import ckernel
from repro.sched.deadlines import task_deadlines
from repro.sched.eventloop import heapq_schedule
from repro.sched.list_scheduler import list_schedule
from repro.sched.priorities import priority_keys

needs_ckernel = pytest.mark.skipif(
    not ckernel.CKERNEL_ACTIVE,
    reason="C scheduler kernel unavailable (no compiler?)")


def _kernel_inputs(graph, deadlines, policy="edf"):
    succ_flat, succ_offsets = graph.succ_csr
    keys = np.ascontiguousarray(priority_keys(graph, deadlines, policy),
                                dtype=np.float64)
    w = np.ascontiguousarray(graph.weights_array, dtype=np.float64)
    deg = np.asarray(graph.in_degrees, dtype=np.intp)
    return keys, w, succ_flat, succ_offsets, deg


def _heapq_arrays(graph, n_procs, deadlines, policy="edf"):
    return heapq_schedule(priority_keys(graph, deadlines, policy).tolist(),
                          graph.weights_list, graph.succ_indices,
                          graph.in_degrees, n_procs)


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
        keys, w, flat, offs, deg = _kernel_inputs(g, d)
        cs, cf, cp = ckernel.schedule_kernel_c(
            keys, w, flat, offs, deg, n_procs)
        ps, pf, pp = _heapq_arrays(g, n_procs, d)
        assert np.array_equal(cs, ps)
        assert np.array_equal(cf, pf)
        assert np.array_equal(cp, pp)

    @given(instances(), st.sampled_from(["edf", "hlfet", "fifo"]))
    @settings(max_examples=30, deadline=None)
    def test_identical_across_policies(self, inst, policy):
        g, n_procs, d = inst
        keys, w, flat, offs, deg = _kernel_inputs(g, d, policy)
        cs, cf, cp = ckernel.schedule_kernel_c(
            keys, w, flat, offs, deg, n_procs)
        ps, pf, pp = _heapq_arrays(g, n_procs, d, policy)
        assert np.array_equal(cs, ps)
        assert np.array_equal(cf, pf)
        assert np.array_equal(cp, pp)

    def test_does_not_mutate_inputs(self):
        """The C signature takes const inputs; in_degrees especially
        must survive (the kernel decrements its own copy)."""
        g = stg_random_graph(30, 5).scaled(3.1e6)
        d = task_deadlines(g, 2.0 * critical_path_length(g))
        keys, w, flat, offs, deg = _kernel_inputs(g, d)
        snapshots = [a.copy() for a in (keys, w, flat, offs, deg)]
        ckernel.schedule_kernel_c(keys, w, flat, offs, deg, 4)
        for a, snap in zip((keys, w, flat, offs, deg), snapshots):
            assert np.array_equal(a, snap)


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
            assert ckernel._kernel is None

    def test_inactive_kernel_raises_cleanly(self, monkeypatch):
        monkeypatch.setattr(ckernel, "_kernel", None)
        with pytest.raises(RuntimeError):
            ckernel.schedule_kernel_c(
                np.zeros(1), np.ones(1),
                np.empty(0, dtype=np.intp),
                np.zeros(2, dtype=np.intp),
                np.zeros(1, dtype=np.intp), 1)

    def test_self_test_passes_on_loaded_kernel(self):
        if ckernel._kernel is None:
            pytest.skip("kernel not loaded")
        assert ckernel._self_test(ckernel._kernel)

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
