"""Differential tests: the cross-instance batched sweep vs the scalar loop.

:func:`repro.core.batch.batch_energy_sweep` claims that every request's
breakdown list is *bitwise* equal to the scalar
:func:`repro.core.energy.schedule_energy` loop over the request's
points.  That is what lets the campaign runner evaluate whole chunks at
once while reports, caches and golden files keep their exact historical
bytes, so it is asserted with ``==`` on every component over drawn
batches: mixed graph sizes and processor counts (ragged padded tails),
mixed sleep models within one batch, single-member batches, duplicate
and empty point tuples, and the exception order of infeasible windows.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_mod
from repro.core.batch import ScheduleBatch, SweepRequest, SweepRows, \
    batch_energy_sweep
from repro.core.energy import EnergyBreakdown, schedule_energy
from repro.core.lamps import _best_point
from repro.core.platform import default_platform
from repro.core.stretch import feasible_points, required_frequency
from repro.graphs.analysis import critical_path_length
from repro.graphs.dag import TaskGraph
from repro.graphs.generators import stg_random_graph
from repro.power.shutdown import SleepModel
from repro.sched.deadlines import task_deadlines
from repro.sched.ckernel import CKERNEL_ACTIVE
from repro.sched.list_scheduler import list_schedule
from repro.sched.schedule import Schedule

PLATFORM = default_platform()


def _instance(seed: int, n: int, n_procs: int, factor: float):
    """One (schedule, feasible ladder, window) campaign instance."""
    g = stg_random_graph(n, seed).scaled(3.1e6)
    deadline = factor * critical_path_length(g)
    d = task_deadlines(g, deadline)
    s = list_schedule(g, n_procs, d)
    f_req = required_frequency(s, d, PLATFORM.fmax)
    points = feasible_points(PLATFORM.ladder, f_req)
    return s, tuple(points), PLATFORM.seconds(deadline)


@st.composite
def batches(draw):
    """A ScheduleBatch plus one sweep request per member, ragged shapes."""
    k = draw(st.integers(min_value=1, max_value=5))
    members = []
    for i in range(k):
        seed = draw(st.integers(min_value=0, max_value=2_000))
        n = draw(st.sampled_from([5, 12, 25]))
        n_procs = draw(st.sampled_from([1, 2, 4, 9]))
        factor = draw(st.sampled_from([1.1, 1.5, 2.0, 4.0]))
        members.append(_instance(seed, n, n_procs, factor))
    assume(any(points for _, points, _ in members))
    batch = ScheduleBatch.from_schedules([s for s, _, _ in members])
    requests = [SweepRequest(schedule_index=i, points=points,
                             deadline_seconds=window)
                for i, (_, points, window) in enumerate(members)]
    return batch, requests


def _bits(b):
    """A breakdown's exact bit patterns (``==`` would merge -0.0/0.0)."""
    return (np.array([b.busy, b.idle, b.sleep, b.overhead]).tobytes(),
            b.n_shutdowns)


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for b_got, b_want in zip(got, want):
        assert b_got.busy == b_want.busy
        assert b_got.idle == b_want.idle
        assert b_got.sleep == b_want.sleep
        assert b_got.overhead == b_want.overhead
        assert b_got.n_shutdowns == b_want.n_shutdowns
        assert _bits(b_got) == _bits(b_want)


def scalar_sweep(schedule, points, window, sleep=None):
    """The scalar reference loop over one schedule's points."""
    return [schedule_energy(schedule, p, window, sleep=sleep)
            for p in points]


def serial_reference(batch, requests):
    """What the scalar loop produces, request by request.

    It raises at the same first (request, point) the batch must name.
    """
    return [scalar_sweep(batch.schedules[r.schedule_index], r.points,
                         r.deadline_seconds, sleep=r.sleep)
            for r in requests]


class TestBatchMatchesSerial:
    @given(batches())
    @settings(max_examples=30, deadline=None)
    def test_without_sleep(self, drawn):
        batch, requests = drawn
        got = batch_energy_sweep(batch, requests)
        want = serial_reference(batch, requests)
        for g_list, w_list in zip(got, want):
            assert_bitwise_equal(g_list, w_list)

    @given(batches())
    @settings(max_examples=30, deadline=None)
    def test_with_sleep(self, drawn):
        batch, requests = drawn
        requests = [SweepRequest(r.schedule_index, r.points,
                                 r.deadline_seconds, sleep=PLATFORM.sleep)
                    for r in requests]
        got = batch_energy_sweep(batch, requests)
        want = serial_reference(batch, requests)
        for g_list, w_list in zip(got, want):
            assert_bitwise_equal(g_list, w_list)

    @given(batches(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_mixed_sleep_models_within_one_batch(self, drawn, data):
        """Lanes with different models (and None) must not interfere."""
        batch, requests = drawn
        models = [None, PLATFORM.sleep,
                  SleepModel(sleep_power=data.draw(st.floats(
                      min_value=0.0, max_value=1e-3)),
                      overhead_energy=data.draw(st.floats(
                          min_value=0.0, max_value=1e-2)))]
        requests = [SweepRequest(r.schedule_index, r.points,
                                 r.deadline_seconds,
                                 sleep=models[i % len(models)])
                    for i, r in enumerate(requests)]
        got = batch_energy_sweep(batch, requests)
        want = serial_reference(batch, requests)
        for g_list, w_list in zip(got, want):
            assert_bitwise_equal(g_list, w_list)

    @given(batches())
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar_reference(self, drawn):
        """Close the chain: batched == scalar loop, point by point."""
        batch, requests = drawn
        requests = [SweepRequest(r.schedule_index, r.points,
                                 r.deadline_seconds, sleep=PLATFORM.sleep)
                    for r in requests]
        got = batch_energy_sweep(batch, requests)
        for r, g_list in zip(requests, got):
            want = [schedule_energy(batch.schedules[r.schedule_index], p,
                                    r.deadline_seconds, sleep=r.sleep)
                    for p in r.points]
            assert_bitwise_equal(g_list, want)


class TestBatchShapes:
    def _members(self):
        return [_instance(7, 20, 2, 2.0), _instance(11, 5, 4, 1.5),
                _instance(13, 25, 9, 4.0)]

    def test_single_member_batch(self):
        s, points, window = _instance(7, 20, 2, 2.0)
        batch = ScheduleBatch.from_schedules([s])
        got = batch_energy_sweep(
            batch, [SweepRequest(0, points, window, sleep=PLATFORM.sleep)])
        assert_bitwise_equal(
            got[0],
            scalar_sweep(s, points, window, sleep=PLATFORM.sleep))

    def test_empty_request_list(self):
        s, _, _ = _instance(7, 20, 2, 2.0)
        assert batch_energy_sweep(
            ScheduleBatch.from_schedules([s]), []) == []

    def test_empty_point_tuples_yield_empty_lists(self):
        members = self._members()
        batch = ScheduleBatch.from_schedules([s for s, _, _ in members])
        requests = [SweepRequest(0, (), members[0][2]),
                    SweepRequest(1, members[1][1], members[1][2]),
                    SweepRequest(2, (), members[2][2])]
        got = batch_energy_sweep(batch, requests)
        assert got[0] == [] and got[2] == []
        assert_bitwise_equal(got[1], scalar_sweep(
            members[1][0], members[1][1], members[1][2]))

    def test_many_requests_per_member(self):
        """Members may be swept repeatedly, with different windows."""
        s, points, window = _instance(7, 20, 2, 2.0)
        batch = ScheduleBatch.from_schedules([s])
        requests = [SweepRequest(0, points, window),
                    SweepRequest(0, points, 2.0 * window,
                                 sleep=PLATFORM.sleep),
                    SweepRequest(0, points[:1], window)]
        got = batch_energy_sweep(batch, requests)
        want = serial_reference(batch, requests)
        for g_list, w_list in zip(got, want):
            assert_bitwise_equal(g_list, w_list)

    def test_one_task_member_among_larger_ones(self):
        """Extreme ragged tail: a 1-task member next to 25-task ones."""
        members = self._members()
        tiny = _instance(0, 1, 8, 2.0)  # seed 0 avoids the sameprob draw
        members.insert(1, tiny)
        batch = ScheduleBatch.from_schedules([s for s, _, _ in members])
        requests = [SweepRequest(i, points, window, sleep=PLATFORM.sleep)
                    for i, (_, points, window) in enumerate(members)]
        got = batch_energy_sweep(batch, requests)
        want = serial_reference(batch, requests)
        for g_list, w_list in zip(got, want):
            assert_bitwise_equal(g_list, w_list)

    def test_duplicate_points_evaluated_independently(self):
        s, points, window = _instance(7, 20, 2, 2.0)
        p = points[0]
        batch = ScheduleBatch.from_schedules([s])
        got = batch_energy_sweep(
            batch, [SweepRequest(0, (p, p, p), window,
                                 sleep=PLATFORM.sleep)])
        assert got[0][0] == got[0][1] == got[0][2]

    def test_arrays_are_frozen(self):
        members = self._members()
        batch = ScheduleBatch.from_schedules([s for s, _, _ in members])
        for name in ("n_tasks", "makespans", "member_offsets",
                     "employed_ids", "proc_busy", "proc_last",
                     "gap_offsets", "gap_flat"):
            arr = getattr(batch, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_direct_construction_is_forbidden(self):
        with pytest.raises(TypeError, match="from_schedules"):
            ScheduleBatch()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ScheduleBatch.from_schedules([])

    def test_out_of_range_index(self):
        s, points, window = _instance(7, 20, 2, 2.0)
        batch = ScheduleBatch.from_schedules([s])
        with pytest.raises(IndexError, match="outside batch"):
            batch_energy_sweep(batch, [SweepRequest(1, points, window)])

    def test_csr_slices_match_members(self):
        members = self._members()
        members.insert(1, _instance(0, 1, 8, 2.0))  # one employed slot
        batch = ScheduleBatch.from_schedules([s for s, _, _ in members])
        assert batch.size == len(members)
        assert batch.member_offsets[0] == 0
        assert batch.member_offsets[-1] == batch.employed_ids.size
        assert batch.gap_offsets[-1] == batch.gap_flat.size
        for i, (s, _, _) in enumerate(members):
            assert batch.n_tasks[i] == s.graph.n
            assert batch.makespans[i] == s.makespan
            lo, hi = batch.member_offsets[i], batch.member_offsets[i + 1]
            ids = np.asarray(s.employed_processor_ids)
            assert np.array_equal(batch.employed_ids[lo:hi], ids)
            assert np.array_equal(batch.proc_busy[lo:hi],
                                  s.proc_busy_cycles[ids])
            assert np.array_equal(batch.proc_last[lo:hi],
                                  s.proc_last_finish[ids])
            flat, bounds = s.internal_gap_cycles
            for j, p in zip(range(lo, hi), ids):
                row = batch.gap_flat[batch.gap_offsets[j]:
                                     batch.gap_offsets[j + 1]]
                assert np.array_equal(row, flat[bounds[p]:bounds[p + 1]])
        assert batch.max_tasks == max(s.graph.n for s, _, _ in members)


class TestLazyRows:
    """Native rows build each breakdown on first access, once."""

    def _rows(self):
        if not CKERNEL_ACTIVE:
            pytest.skip("the reference loop returns plain lists")
        s, points, window = _instance(7, 20, 2, 2.0)
        got = batch_energy_sweep(
            ScheduleBatch.from_schedules([s]),
            [SweepRequest(0, points, window, sleep=PLATFORM.sleep),
             SweepRequest(0, points[:2], window)])
        want = [scalar_sweep(s, points, window, sleep=PLATFORM.sleep),
                scalar_sweep(s, points[:2], window)]
        return got, want

    def test_sequence_protocol(self):
        got, want = self._rows()
        rows, ref = got[0], want[0]
        assert isinstance(rows, SweepRows)
        assert len(rows) == len(ref) > 2
        assert rows == ref and ref == rows and rows != ref[1:]
        assert rows != tuple(ref)
        assert list(rows) == ref and rows[1:3] == ref[1:3]
        assert rows[-1] == ref[-1]
        with pytest.raises(IndexError):
            rows[len(ref)]
        assert got[1] == want[1]  # the second request's own lanes

    def test_breakdowns_are_built_once(self):
        got, _ = self._rows()
        assert got[0][1] is got[0][1]
        assert next(iter(got[0])) is got[0][0]

    def test_totals_are_the_breakdowns_totals(self):
        got, want = self._rows()
        for rows, ref in zip(got, want):
            assert np.array(rows.totals).tobytes() == \
                np.array([e.total for e in ref]).tobytes()

    def test_best_point_keeps_the_first_minimum(self):
        """Rows and lists pick the same lane, ties included."""
        got, want = self._rows()
        for rows, ref in zip(got, want):
            assert _best_point(rows) == _best_point(ref)
        s, points, window = _instance(7, 20, 2, 2.0)
        p = points[-1]
        tied = batch_energy_sweep(ScheduleBatch.from_schedules([s]),
                                  [SweepRequest(0, (p, p, p), window)])[0]
        assert _best_point(tied) == (0, tied[0].total)
        ref = [EnergyBreakdown(1.0, 1.0), EnergyBreakdown(0.5, 0.5),
               EnergyBreakdown(0.25, 0.75), EnergyBreakdown(2.0, 0.0)]
        assert _best_point(ref) == (1, 1.0)


class TestBatchExceptionOrder:
    def test_infeasible_window_raises_like_serial(self):
        """First offending (request, point) wins, with the same message."""
        s1, points1, window1 = _instance(7, 20, 2, 2.0)
        s2, points2, _ = _instance(11, 25, 2, 1.1)
        slow = PLATFORM.ladder[0]
        bad_window = 0.5 * s2.makespan / slow.frequency
        batch = ScheduleBatch.from_schedules([s1, s2])
        requests = [SweepRequest(0, points1, window1),
                    SweepRequest(1, tuple(PLATFORM.ladder), bad_window)]
        with pytest.raises(ValueError) as serial_exc:
            serial_reference(batch, requests)
        with pytest.raises(ValueError) as batch_exc:
            batch_energy_sweep(batch, requests)
        assert str(batch_exc.value) == str(serial_exc.value)

    def test_earlier_request_wins(self):
        """Request order, not severity, decides which error surfaces."""
        s1, _, _ = _instance(7, 20, 2, 1.1)
        s2, _, _ = _instance(11, 25, 2, 1.1)
        slow = PLATFORM.ladder[0]
        batch = ScheduleBatch.from_schedules([s1, s2])
        requests = [
            SweepRequest(0, tuple(PLATFORM.ladder),
                         0.5 * s1.makespan / slow.frequency),
            SweepRequest(1, tuple(PLATFORM.ladder),
                         0.1 * s2.makespan / slow.frequency),
        ]
        with pytest.raises(ValueError) as serial_exc:
            serial_reference(batch, requests)
        with pytest.raises(ValueError) as batch_exc:
            batch_energy_sweep(batch, requests)
        assert str(batch_exc.value) == str(serial_exc.value)

    @given(batches(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_shrunk_windows_raise_identically(self, drawn, shrink):
        """Shrinking every window reproduces the serial error exactly."""
        batch, requests = drawn
        requests = [SweepRequest(r.schedule_index, r.points,
                                 shrink * r.deadline_seconds)
                    for r in requests]
        serial_err = batch_err = None
        try:
            want = serial_reference(batch, requests)
        except ValueError as exc:
            serial_err = str(exc)
        try:
            got = batch_energy_sweep(batch, requests)
        except ValueError as exc:
            batch_err = str(exc)
        assert serial_err == batch_err
        if serial_err is None:
            for g_list, w_list in zip(got, want):
                assert_bitwise_equal(g_list, w_list)


# ----------------------------------------------------------------------
# Long gap rows: every branch of the pairwise sum
# ----------------------------------------------------------------------

#: Internal gaps per processor row: each side of the 8-element block
#: and of the 128-element split, several recursion depths, and past
#: numpy's 8192-element buffer.
ROW_LENGTHS = (0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 257, 1000, 8193)


def _gap_row_schedule(n_gaps, seed):
    """A one-processor schedule on an edge-free graph with ``n_gaps``
    internal gaps of widely varying length (so summation order shows).
    """
    rng = np.random.default_rng(seed)
    n = max(n_gaps, 1)
    gaps = rng.uniform(1e3, 1e7, n_gaps) * rng.choice(
        [1.0, 1e-3, 37.0], n_gaps)
    weights = rng.uniform(1e3, 1e6, n)
    starts = np.empty(n)
    finishes = np.empty(n)
    t = 0.0
    for k in range(n):
        if k < n_gaps:
            t += gaps[k]
        starts[k] = t
        t = t + weights[k]
        finishes[k] = t
    graph = TaskGraph(dict(enumerate((finishes - starts).tolist())))
    return Schedule.from_arrays(graph, 1, starts, finishes,
                                np.zeros(n, dtype=np.intp))


class TestLongGapRows:
    """Rows of 0 to 8,193 gaps, with and without a trailing gap."""

    @pytest.fixture(scope="class")
    def rows(self):
        schedules = [_gap_row_schedule(n, seed)
                     for seed, n in enumerate(ROW_LENGTHS)]
        for s, n in zip(schedules, ROW_LENGTHS):
            assert s.internal_gap_cycles[0].size == n
        return schedules, ScheduleBatch.from_schedules(schedules)

    @pytest.mark.parametrize("sleep", [None, PLATFORM.sleep],
                             ids=["no-sleep", "sleep"])
    def test_bitwise_equal_to_scalar(self, rows, sleep):
        schedules, batch = rows
        points = tuple(PLATFORM.ladder[-4:])
        requests = []
        for i, s in enumerate(schedules):
            # The last finish is the horizon: no trailing gap.
            requests += [SweepRequest(i, (p,), s.makespan / p.frequency,
                                      sleep) for p in points]
            # A longer window: one trailing gap after the internal ones.
            requests.append(SweepRequest(
                i, points, 3.0 * s.makespan / points[0].frequency, sleep))
        got = batch_energy_sweep(batch, requests)
        want = serial_reference(batch, requests)
        for g_list, w_list in zip(got, want):
            assert_bitwise_equal(g_list, w_list)
        if sleep is not None:  # both sides of the shutdown rule ran
            shut = [b.n_shutdowns for lst in got for b in lst]
            assert max(shut) > 0
            assert any(b.idle > 0 for lst in got for b in lst)


# ----------------------------------------------------------------------
# Sleep models: custom rules and metamorphic checks
# ----------------------------------------------------------------------

class NeverSleep(SleepModel):
    """A custom rule the native sweep does not know: never shut down."""

    __slots__ = ()

    def would_shut_down(self, duration_seconds, idle_power_watts):
        return np.zeros(np.shape(duration_seconds), dtype=bool)


def _with_sleep(requests, sleep):
    return [SweepRequest(r.schedule_index, r.points, r.deadline_seconds,
                         sleep=sleep) for r in requests]


def _n_gaps(schedule, point, window):
    h = window * point.frequency
    return sum(schedule.gap_lengths(p, h).size
               for p in schedule.employed_processor_ids)


class TestSleepModels:
    def test_custom_model_is_honoured(self):
        s, points, window = _instance(7, 20, 2, 4.0)
        batch = ScheduleBatch.from_schedules([s])
        never = NeverSleep()
        got = batch_energy_sweep(batch, [
            SweepRequest(0, points, window, sleep=never),
            SweepRequest(0, points, window, sleep=SleepModel())])
        assert_bitwise_equal(got[0], scalar_sweep(s, points, window,
                                                  sleep=never))
        assert all(b.n_shutdowns == 0 for b in got[0])
        assert any(b.n_shutdowns > 0 for b in got[1])
        assert [_bits(b) for b in got[0]] != [_bits(b) for b in got[1]]

    def test_custom_model_window_errors_keep_request_order(self):
        s1, points1, window1 = _instance(7, 20, 2, 2.0)
        s2, _, _ = _instance(11, 25, 2, 1.1)
        slow = PLATFORM.ladder[0]
        batch = ScheduleBatch.from_schedules([s1, s2])
        requests = [SweepRequest(0, points1, window1, sleep=NeverSleep()),
                    SweepRequest(1, tuple(PLATFORM.ladder),
                                 0.5 * s2.makespan / slow.frequency,
                                 sleep=NeverSleep())]
        with pytest.raises(ValueError) as serial_exc:
            serial_reference(batch, requests)
        with pytest.raises(ValueError) as batch_exc:
            batch_energy_sweep(batch, requests)
        assert str(batch_exc.value) == str(serial_exc.value)

    @given(batches())
    @settings(max_examples=20, deadline=None)
    def test_free_sleep_shuts_every_gap(self, drawn):
        """No sleep power, no overhead: every gap is slept away."""
        batch, requests = drawn
        got = batch_energy_sweep(batch, _with_sleep(requests,
                                                    SleepModel(0, 0)))
        for r, lst in zip(requests, got):
            s = batch.schedules[r.schedule_index]
            for p, b in zip(r.points, lst):
                assert b.idle == b.sleep == b.overhead == 0.0
                assert b.n_shutdowns == _n_gaps(s, p, r.deadline_seconds)

    @given(batches())
    @settings(max_examples=20, deadline=None)
    def test_unpayable_overhead_equals_no_sleep(self, drawn):
        """An overhead nothing can repay makes PS a bitwise no-op."""
        batch, requests = drawn
        got = batch_energy_sweep(batch, _with_sleep(
            requests, SleepModel(overhead_energy=1e300)))
        want = batch_energy_sweep(batch, requests)
        for g_list, w_list in zip(got, want):
            assert_bitwise_equal(g_list, w_list)


class TestScalarFallback:
    @given(batches())
    @settings(max_examples=10, deadline=None)
    def test_fallback_equals_native(self, drawn):
        """Without the C kernel the scalar loop answers identically."""
        batch, requests = drawn
        requests = [SweepRequest(r.schedule_index, r.points,
                                 r.deadline_seconds,
                                 sleep=[None, PLATFORM.sleep][i % 2])
                    for i, r in enumerate(requests)]
        native = batch_energy_sweep(batch, requests)
        saved = batch_mod.CKERNEL_ACTIVE
        batch_mod.CKERNEL_ACTIVE = False
        try:
            fallback = batch_energy_sweep(batch, requests)
        finally:
            batch_mod.CKERNEL_ACTIVE = saved
        for g_list, w_list in zip(native, fallback):
            assert_bitwise_equal(g_list, w_list)
