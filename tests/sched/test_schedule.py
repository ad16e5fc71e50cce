"""Tests for the Schedule data structure."""

import numpy as np
import pytest

from repro.graphs.dag import TaskGraph
from repro.sched import list_scheduler
from repro.sched.ckernel import CKERNEL_ACTIVE
from repro.sched.list_scheduler import list_schedule
from repro.sched.schedule import Placement, Schedule
from repro.sched.validate import validate_schedule


@pytest.fixture
def two_proc_schedule(diamond):
    """A hand-built valid schedule of the diamond on 2 processors."""
    return Schedule(diamond, 2, [
        Placement("a", 0, 0.0, 1.0),
        Placement("b", 1, 1.0, 3.0),
        Placement("c", 0, 1.0, 4.0),
        Placement("d", 0, 4.0, 5.0),
    ])


class TestConstruction:
    def test_makespan(self, two_proc_schedule):
        assert two_proc_schedule.makespan == 5.0

    def test_duplicate_placement_rejected(self, diamond):
        pls = [Placement(v, 0, 0, 1) for v in ("a", "a", "b", "c", "d")]
        with pytest.raises(ValueError, match="twice"):
            Schedule(diamond, 1, pls)

    def test_missing_task_rejected(self, diamond):
        with pytest.raises(ValueError, match="unplaced"):
            Schedule(diamond, 1, [Placement("a", 0, 0, 1)])

    def test_processor_out_of_range_rejected(self, diamond):
        pls = [Placement(v, 5, 0, 1) for v in diamond.node_ids]
        with pytest.raises(ValueError, match="out of range"):
            Schedule(diamond, 2, pls)

    def test_zero_processors_rejected(self, diamond):
        with pytest.raises(ValueError):
            Schedule(diamond, 0, [])


class TestQueries:
    def test_placement_lookup(self, two_proc_schedule):
        pl = two_proc_schedule.placement("c")
        assert pl.processor == 0 and pl.start == 1.0

    def test_processor_tasks_sorted_by_start(self, two_proc_schedule):
        tasks = [p.task for p in two_proc_schedule.processor_tasks(0)]
        assert tasks == ["a", "c", "d"]

    def test_finish_times_indexed_by_node(self, two_proc_schedule, diamond):
        ft = two_proc_schedule.finish_times
        assert ft[diamond.index_of("b")] == 3.0

    def test_employed_processors(self, two_proc_schedule):
        assert two_proc_schedule.employed_processors == 2

    def test_unused_processor_not_counted(self, diamond):
        s = Schedule(diamond, 5, [
            Placement("a", 0, 0, 1), Placement("b", 0, 1, 3),
            Placement("c", 0, 3, 6), Placement("d", 0, 6, 7)])
        assert s.employed_processors == 1

    def test_busy_cycles(self, two_proc_schedule):
        assert two_proc_schedule.busy_cycles(0) == 5.0
        assert two_proc_schedule.busy_cycles(1) == 2.0


class TestGaps:
    def test_interior_and_trailing_gaps(self, two_proc_schedule):
        gaps = two_proc_schedule.idle_gaps(1, 10.0)
        # Proc 1 runs b in [1, 3]: leading [0,1], trailing [3,10].
        assert gaps == [(0.0, 1.0), (3.0, 10.0)]

    def test_no_gaps_on_packed_processor(self, two_proc_schedule):
        assert two_proc_schedule.idle_gaps(0, 5.0) == []

    def test_unused_processor_single_full_gap(self, diamond):
        s = Schedule(diamond, 2, [
            Placement(v, 0, i, i + 1)
            for i, v in enumerate(["a", "b", "c", "d"])])
        assert s.idle_gaps(1, 8.0) == [(0.0, 8.0)]

    def test_horizon_before_finish_raises(self, two_proc_schedule):
        with pytest.raises(ValueError, match="horizon"):
            two_proc_schedule.idle_gaps(0, 3.0)

    def test_gap_lengths_vector(self, two_proc_schedule):
        lens = two_proc_schedule.gap_lengths(1, 10.0)
        assert np.allclose(lens, [1.0, 7.0])

    def test_gap_lengths_empty(self, two_proc_schedule):
        assert two_proc_schedule.gap_lengths(0, 5.0).size == 0


class TestRequiredFrequency:
    def test_uniform_deadline(self, two_proc_schedule, diamond):
        d = np.full(diamond.n, 10.0)
        # max finish = 5, deadline 10 -> half speed suffices.
        assert two_proc_schedule.required_reference_frequency(d) == \
            pytest.approx(0.5)

    def test_tight_task_dominates(self, two_proc_schedule, diamond):
        d = np.full(diamond.n, 10.0)
        d[diamond.index_of("b")] = 3.0  # b finishes at 3 -> ratio 1
        assert two_proc_schedule.required_reference_frequency(d) == \
            pytest.approx(1.0)

    def test_wrong_length_raises(self, two_proc_schedule):
        with pytest.raises(ValueError, match="length"):
            two_proc_schedule.required_reference_frequency(np.ones(3))

    def test_infeasible_zero_deadline(self, two_proc_schedule, diamond):
        d = np.zeros(diamond.n)
        assert two_proc_schedule.required_reference_frequency(d) == np.inf

    def test_positive_deadlines_match_the_general_chain(
            self, two_proc_schedule, diamond):
        """The all-positive fast path returns the chain's exact float."""
        rng = np.random.default_rng(7)
        finish = two_proc_schedule.finish_times
        for _ in range(50):
            d = rng.uniform(0.1, 20.0, diamond.n)
            want = float(np.where(d > 0, finish / d, np.inf).max())
            got = two_proc_schedule.required_reference_frequency(d)
            assert got.hex() == want.hex()

    def test_one_zero_deadline_takes_the_general_chain(
            self, two_proc_schedule, diamond):
        d = np.full(diamond.n, 10.0)
        d[diamond.index_of("b")] = 0.0  # b finishes at 3 > 0
        assert two_proc_schedule.required_reference_frequency(d) == np.inf


class TestGapTolerance:
    def test_horizon_equal_to_finish_at_large_scale(self, diamond):
        """Regression: a horizon that equals the last finish up to
        float rounding (seconds->cycles round trips at 1e8+ scales)
        must yield no trailing gap rather than raise."""
        g = diamond.scaled(3.1e7)
        s = Schedule(g, 1, [
            Placement("a", 0, 0.0, 1.0 * 3.1e7),
            Placement("b", 0, 1.0 * 3.1e7, 3.0 * 3.1e7),
            Placement("c", 0, 3.0 * 3.1e7, 6.0 * 3.1e7),
            Placement("d", 0, 6.0 * 3.1e7, 7.0 * 3.1e7),
        ])
        finish = 7.0 * 3.1e7
        # A horizon epsilon *below* the true finish (fp round trip).
        wobbled = finish * (1.0 - 1e-12)
        assert s.idle_gaps(0, wobbled) == []
        # And epsilon above: still no spurious sliver gap.
        assert s.idle_gaps(0, finish * (1.0 + 1e-12)) == []


class TestZeroWeightStartTie:
    """A zero-weight task and a task started at its instant on one
    processor: the per-processor order is (start, finish, index), so
    the zero-weight task comes first whatever the dense indices."""

    @pytest.fixture
    def graph(self):
        return TaskGraph({"B": 3.0, "A": 0.0})

    def _check(self, s):
        assert s.tasks_on(0).tolist() == [1, 0]  # A, then B
        assert [pl.task for pl in s.processor_tasks(0)] == ["A", "B"]
        assert s.proc_last_finish.tolist() == [3.0]
        assert s.proc_busy_cycles.tolist() == [3.0]
        assert s.gap_lengths(0, 10.0).tolist() == [7.0]
        assert s.idle_gaps(0, 10.0) == [(3.0, 10.0)]
        validate_schedule(s)

    @pytest.mark.parametrize("native", [True, False])
    def test_list_schedule(self, graph, monkeypatch, native):
        if native and not CKERNEL_ACTIVE:
            pytest.skip("C scheduler kernel unavailable")
        monkeypatch.setattr(list_scheduler, "CKERNEL_ACTIVE", native)
        s = list_schedule(graph, 1, np.array([10.0, 1.0]))
        assert s.start_times.tolist() == [0.0, 0.0]
        self._check(s)

    def test_from_arrays(self, graph):
        self._check(Schedule.from_arrays(
            graph, 1, np.zeros(2), np.array([3.0, 0.0]),
            np.zeros(2, dtype=np.intp)))

    def test_placement_constructor(self, graph):
        self._check(Schedule(graph, 1, [Placement("B", 0, 0.0, 3.0),
                                        Placement("A", 0, 0.0, 0.0)]))
