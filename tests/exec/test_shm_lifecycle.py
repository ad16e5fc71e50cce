"""Lifecycle tests for the shared-memory pool transport.

The :mod:`repro.exec.shm` contract is byte-exact transport plus a hard
cleanup guarantee: after any :func:`repro.exec.pool.run_instances_shm`
call — normal completion, a worker raising, or a worker killed outright
— every reserved segment is gone.  Leaked ``/dev/shm`` segments
accumulate across campaign runs until the machine's shm fills, so the
guarantee is asserted here for each exit path, by name.
"""

import os
import signal

import numpy as np
import pytest

from repro.exec.pool import run_instances, run_instances_shm
from repro.exec.shm import publish_array, reserve_names, segment_exists, \
    take_array, unlink_segment


def _payload(spec):
    """Build a deterministic array from (seed, shape) — runs in workers."""
    seed, shape = spec
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape)


def _boom_on_two(spec):
    seed, _ = spec
    if seed == 2:
        raise RuntimeError("instance two exploded")
    return _payload(spec)


def _kill_on_two(spec):
    seed, _ = spec
    if seed == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return _payload(spec)


class TestRoundTrip:
    def test_publish_take_byte_exact(self):
        arr = np.random.default_rng(0).standard_normal((7, 11))
        handle = publish_array(arr)
        back = take_array(handle)
        assert back.tobytes() == arr.tobytes()
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert not segment_exists(handle.name)

    def test_take_unlinks_exactly_once(self):
        handle = publish_array(np.arange(5.0))
        take_array(handle)
        with pytest.raises(FileNotFoundError):
            take_array(handle)

    def test_empty_array_round_trip(self):
        handle = publish_array(np.empty((0, 17)))
        back = take_array(handle)
        assert back.shape == (0, 17)

    def test_empty_array_keeps_dtype_and_unlinks(self):
        """The zero-size path (1-byte pad segment) must preserve dtype
        and release its segment like any other take."""
        handle = publish_array(np.empty((0, 6, 16), dtype=np.float64))
        assert segment_exists(handle.name)
        back = take_array(handle)
        assert back.shape == (0, 6, 16)
        assert back.dtype == np.float64
        assert not segment_exists(handle.name)

    def test_empty_int_array_round_trip(self):
        back = take_array(publish_array(np.empty((3, 0), dtype=np.int32)))
        assert back.shape == (3, 0) and back.dtype == np.int32

    def test_non_contiguous_publish(self):
        arr = np.arange(24.0).reshape(4, 6)[:, ::2]
        handle = publish_array(np.ascontiguousarray(arr))
        assert np.array_equal(take_array(handle), arr)

    def test_unlink_segment_is_idempotent(self):
        handle = publish_array(np.arange(3.0))
        assert unlink_segment(handle.name) is True
        assert unlink_segment(handle.name) is False
        assert unlink_segment("rpnope-never-existed") is False

    def test_reserved_names_are_fresh_and_bounded(self):
        names = reserve_names(16)
        assert len(set(names)) == 16
        # macOS limits shm names to ~31 chars (incl. the leading slash).
        assert all(len(n) <= 30 for n in names)
        assert all(not segment_exists(n) for n in names)

    def test_reserving_starts_the_resource_tracker(self):
        """reserve_names must pre-start the tracker so forked workers
        inherit it — per-worker trackers would warn about "leaked"
        segments the coordinator in fact unlinked."""
        from multiprocessing import resource_tracker

        reserve_names(1)
        assert resource_tracker._resource_tracker._check_alive()


class TestPoolTransport:
    SPECS = [(seed, (5, 17)) for seed in range(8)]

    def test_parallel_matches_serial_byte_exact(self):
        serial = run_instances(_payload, self.SPECS, jobs=1)
        shm = run_instances_shm(_payload, self.SPECS, jobs=3)
        for a, b in zip(serial, shm):
            assert a.index == b.index
            assert a.value.tobytes() == b.value.tobytes()

    def test_no_segments_leak_on_success(self, monkeypatch):
        reserved = []
        import repro.exec.pool as pool_mod
        real = pool_mod.reserve_names

        def spy(count, **kw):
            names = real(count, **kw)
            reserved.extend(names)
            return names

        monkeypatch.setattr(pool_mod, "reserve_names", spy)
        run_instances_shm(_payload, self.SPECS, jobs=2)
        assert reserved, "the transport should have reserved names"
        assert all(not segment_exists(n) for n in reserved)

    def test_no_segments_leak_after_worker_raise(self, monkeypatch):
        reserved = []
        import repro.exec.pool as pool_mod
        real = pool_mod.reserve_names

        def spy(count, **kw):
            names = real(count, **kw)
            reserved.extend(names)
            return names

        monkeypatch.setattr(pool_mod, "reserve_names", spy)
        with pytest.raises(RuntimeError, match="exploded"):
            run_instances_shm(_boom_on_two, self.SPECS, jobs=2,
                              chunksize=2)
        assert reserved
        assert all(not segment_exists(n) for n in reserved)

    def test_no_segments_leak_after_worker_kill(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        reserved = []
        import repro.exec.pool as pool_mod
        real = pool_mod.reserve_names

        def spy(count, **kw):
            names = real(count, **kw)
            reserved.extend(names)
            return names

        monkeypatch.setattr(pool_mod, "reserve_names", spy)
        with pytest.raises(BrokenProcessPool):
            run_instances_shm(_kill_on_two, self.SPECS, jobs=2,
                              chunksize=2)
        assert reserved
        assert all(not segment_exists(n) for n in reserved)

    def test_worker_raise_keeps_instance_attribution(self):
        with pytest.raises(RuntimeError) as excinfo:
            run_instances_shm(_boom_on_two, self.SPECS, jobs=2,
                              chunksize=2)
        assert excinfo.value.instance_index == 2

    def test_serial_path_bypasses_shm(self):
        out = run_instances_shm(_payload, self.SPECS[:3], jobs=1)
        want = run_instances(_payload, self.SPECS[:3], jobs=1)
        for a, b in zip(out, want):
            assert a.value.tobytes() == b.value.tobytes()

    def test_progress_monotonic_and_complete(self):
        seen = []
        run_instances_shm(_payload, self.SPECS, jobs=2, chunksize=3,
                          progress=lambda d, t: seen.append((d, t)))
        dones = [d for d, _ in seen]
        assert dones == sorted(dones)
        assert seen[-1] == (len(self.SPECS), len(self.SPECS))

    def test_empty_result_arrays_through_the_pool(self):
        """Workers returning zero-size arrays must round-trip the shm
        transport — the server's fully-warm / empty-dispatch shape."""
        specs = [(seed, (0, 17)) for seed in range(4)]
        out = run_instances_shm(_payload, specs, jobs=2, chunksize=2)
        assert len(out) == len(specs)
        for item in out:
            assert item.value.shape == (0, 17)

    def test_suite_chunk_worker_empty_chunk(self):
        """A zero-instance chunk encodes to a (0, 6, 16) block instead
        of tripping ``np.stack`` on an empty list."""
        from repro.exec.runner import _suite_chunk_worker

        arr = _suite_chunk_worker((0, (), None, "edf", False, False))
        assert arr.shape == (0, 6, 16)
        assert arr.dtype == np.float64

    def test_existing_annotation_not_overwritten(self):
        """_identify_failure must respect worker-side attribution."""
        from repro.exec.pool import _identify_failure

        exc = RuntimeError("x")
        exc.instance_index = 41
        exc.instance_repr = "fine-grained"
        _identify_failure(exc, 7, "chunk-level item")
        assert exc.instance_index == 41
        assert exc.instance_repr == "fine-grained"
