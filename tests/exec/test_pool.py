"""Unit tests for the chunked process-pool fan-out."""

import multiprocessing
import os
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.exec.pool import InstanceResult, run_instances


# Workers must live at module level so the pool can pickle them.
def _square(x):
    return x * x


def _boom_on_three(x):
    if x == 3:
        raise ValueError("instance 3 is cursed")
    return x


def _kill_on_two(x):
    if x == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _annotated_boom_on_five(x):
    """A chunk-style worker: names a finer instance than its item."""
    if x == 5:
        exc = ValueError("sub-instance failed")
        exc.instance_index = 50
        raise exc
    return x


class TestSerial:
    def test_empty_input(self):
        assert run_instances(_square, [], jobs=1) == []
        assert run_instances(_square, [], jobs=4) == []

    def test_values_and_order(self):
        results = run_instances(_square, list(range(7)), jobs=1)
        assert [r.value for r in results] == [x * x for x in range(7)]
        assert [r.index for r in results] == list(range(7))

    def test_per_instance_timing(self):
        results = run_instances(_square, [1, 2], jobs=1)
        assert all(isinstance(r, InstanceResult) and r.seconds >= 0.0
                   for r in results)

    def test_exception_propagates(self):
        with pytest.raises(ValueError, match="cursed"):
            run_instances(_boom_on_three, [1, 2, 3, 4], jobs=1)

    def test_progress_ordering(self):
        calls = []
        run_instances(_square, list(range(5)), jobs=1,
                      progress=lambda done, total: calls.append((done, total)))
        assert calls == [(i, 5) for i in range(1, 6)]

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_instances(_square, [1], jobs=0)


class TestParallel:
    def test_matches_serial(self):
        serial = run_instances(_square, list(range(11)), jobs=1)
        parallel = run_instances(_square, list(range(11)), jobs=3,
                                 chunksize=2)
        assert [r.value for r in parallel] == [r.value for r in serial]
        assert [r.index for r in parallel] == [r.index for r in serial]

    def test_more_jobs_than_items(self):
        results = run_instances(_square, [5], jobs=8)
        assert [r.value for r in results] == [25]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="cursed"):
            run_instances(_boom_on_three, list(range(8)), jobs=2,
                          chunksize=1)

    def test_worker_kill_breaks_the_pool_without_hanging(self):
        """A SIGKILLed worker surfaces as BrokenProcessPool within a
        timeout, and the pool leaves no live child process behind."""
        before = set(multiprocessing.active_children())
        with ThreadPoolExecutor(max_workers=1) as runner:
            future = runner.submit(run_instances, _kill_on_two,
                                   list(range(8)), jobs=2, chunksize=2)
            with pytest.raises(BrokenProcessPool):
                future.result(timeout=120)
        leftover = set(multiprocessing.active_children()) - before
        assert not leftover, leftover

    def test_progress_monotonic_and_complete(self):
        calls = []
        run_instances(_square, list(range(9)), jobs=3, chunksize=2,
                      progress=lambda done, total: calls.append((done, total)))
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)           # strictly increasing...
        assert len(set(dones)) == len(dones)
        assert dones[-1] == 9                   # ...and reaches the total
        assert all(t == 9 for _, t in calls)


class _Unreprable:
    def __repr__(self):
        raise RuntimeError("repr is broken too")

    def __eq__(self, other):
        raise TypeError("do not compare me")


def _boom_always(x):
    raise KeyError("no such entry")


class TestFailureIdentification:
    """Worker exceptions name the failing item (index + repr)."""

    def test_serial_exception_carries_index_and_repr(self):
        with pytest.raises(ValueError, match="cursed") as excinfo:
            run_instances(_boom_on_three, [10, 20, 3, 40], jobs=1)
        assert excinfo.value.instance_index == 2
        assert excinfo.value.instance_repr == "3"

    def test_parallel_exception_carries_index_and_repr(self):
        with pytest.raises(ValueError, match="cursed") as excinfo:
            run_instances(_boom_on_three, list(range(8)), jobs=2,
                          chunksize=2)
        # Attributes survive the pool's pickle round-trip.
        assert excinfo.value.instance_index == 3
        assert excinfo.value.instance_repr == "3"

    def test_original_exception_type_preserved(self):
        with pytest.raises(KeyError) as excinfo:
            run_instances(_boom_always, ["only"], jobs=1)
        assert excinfo.value.instance_index == 0
        assert excinfo.value.instance_repr == "'only'"

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="add_note needs Python >= 3.11")
    def test_note_names_the_instance(self):
        with pytest.raises(ValueError) as excinfo:
            run_instances(_boom_on_three, [1, 2, 3], jobs=1)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("instance 2: 3" in n for n in notes)

    def test_existing_annotation_not_overwritten(self):
        """_identify_failure must respect worker-side attribution."""
        from repro.exec.pool import _identify_failure

        exc = RuntimeError("x")
        exc.instance_index = 41
        exc.instance_repr = "fine-grained"
        _identify_failure(exc, 7, "chunk-level item")
        assert exc.instance_index == 41
        assert exc.instance_repr == "fine-grained"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_annotation_survives_the_pool(self, jobs):
        with pytest.raises(ValueError, match="sub-instance") as excinfo:
            run_instances(_annotated_boom_on_five, list(range(8)),
                          jobs=jobs, chunksize=2)
        assert excinfo.value.instance_index == 50

    def test_truncation_and_broken_repr(self):
        from repro.exec.pool import _identify_failure

        exc = ValueError("x")
        _identify_failure(exc, 7, "y" * 2000)
        assert len(exc.instance_repr) == 500
        assert exc.instance_repr.endswith("...")

        exc2 = ValueError("x")
        _identify_failure(exc2, 0, _Unreprable())
        assert exc2.instance_repr == "<unreprable _Unreprable>"
        assert exc2.instance_index == 0


class TestSuiteChunkWorker:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty_chunk_round_trips_as_empty_block(self, jobs):
        """A zero-instance chunk encodes to a (0, 6, 16) block instead
        of tripping ``np.stack`` on an empty list, and crosses the pool
        intact."""
        from repro.exec.runner import _suite_chunk_worker

        item = (0, (), None, "edf", False, False)
        [result] = run_instances(_suite_chunk_worker, [item], jobs=jobs)
        assert result.value.shape == (0, 6, 16)
        assert result.value.dtype == np.float64
