"""Differential tests: the one-schedule ladder sweep vs the scalar evaluator.

:func:`repro.core.energy.schedule_energy_sweep` — a one-schedule
:func:`repro.core.batch.batch_energy_sweep` — claims to reproduce
``[schedule_energy(s, p, D, sleep=sleep) for p in points]`` *bitwise* —
not merely within tolerance.  That claim is what lets the search loops
use the batched evaluator while audits, caches and golden files keep
their exact historical values, so it is asserted here with ``==`` on
every component, over random instances, deadline windows and sleep
models.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.energy import schedule_energy, schedule_energy_sweep
from repro.core.platform import default_platform
from repro.core.stretch import feasible_points, required_frequency
from repro.graphs.analysis import critical_path_length
from repro.graphs.generators import stg_random_graph
from repro.power.shutdown import SleepModel
from repro.sched.deadlines import task_deadlines
from repro.sched.list_scheduler import list_schedule


@st.composite
def swept_schedules(draw):
    """A schedule plus the deadline window and its feasible ladder."""
    platform = default_platform()
    seed = draw(st.integers(min_value=0, max_value=5_000))
    n = draw(st.sampled_from([5, 12, 25, 40]))
    n_procs = draw(st.sampled_from([1, 2, 4, 9]))
    factor = draw(st.sampled_from([1.1, 1.5, 2.0, 4.0, 10.0]))
    g = stg_random_graph(n, seed).scaled(3.1e6)
    deadline = factor * critical_path_length(g)
    d = task_deadlines(g, deadline)
    s = list_schedule(g, n_procs, d)
    f_req = required_frequency(s, d, platform.fmax)
    points = feasible_points(platform.ladder, f_req)
    # A packed schedule under a tight deadline can need more than fmax;
    # those draws have nothing to sweep.
    assume(points)
    return s, points, platform.seconds(deadline)


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for b_got, b_want in zip(got, want):
        assert b_got.busy == b_want.busy
        assert b_got.idle == b_want.idle
        assert b_got.sleep == b_want.sleep
        assert b_got.overhead == b_want.overhead
        assert b_got.n_shutdowns == b_want.n_shutdowns


class TestSweepMatchesScalar:
    @given(swept_schedules())
    @settings(max_examples=40, deadline=None)
    def test_without_sleep(self, inst):
        s, points, window = inst
        got = schedule_energy_sweep(s, points, window)
        assert_bitwise_equal(
            got, [schedule_energy(s, p, window) for p in points])

    @given(swept_schedules())
    @settings(max_examples=40, deadline=None)
    def test_with_sleep(self, inst):
        s, points, window = inst
        sleep = default_platform().sleep
        got = schedule_energy_sweep(s, points, window, sleep=sleep)
        assert_bitwise_equal(
            got, [schedule_energy(s, p, window, sleep=sleep)
                  for p in points])

    @given(swept_schedules(),
           st.floats(min_value=0.0, max_value=1e-3),
           st.floats(min_value=0.0, max_value=1e-2))
    @settings(max_examples=25, deadline=None)
    def test_with_unusual_sleep_models(self, inst, sleep_power, overhead):
        """Breakeven boundaries move with the model; equality must hold."""
        s, points, window = inst
        sleep = SleepModel(sleep_power=sleep_power,
                           overhead_energy=overhead)
        got = schedule_energy_sweep(s, points, window, sleep=sleep)
        assert_bitwise_equal(
            got, [schedule_energy(s, p, window, sleep=sleep)
                  for p in points])


class TestSweepEdgeCases:
    @pytest.fixture()
    def packed(self):
        """A 2-processor schedule with internal and trailing gaps."""
        platform = default_platform()
        g = stg_random_graph(20, 3).scaled(3.1e6)
        deadline = 2.0 * critical_path_length(g)
        d = task_deadlines(g, deadline)
        s = list_schedule(g, 2, d)
        return s, platform, platform.seconds(deadline)

    def test_empty_points_list(self, packed):
        s, _, window = packed
        assert schedule_energy_sweep(s, [], window) == []

    def test_single_point_matches_scalar(self, packed):
        s, platform, window = packed
        p = platform.ladder.max_point
        assert_bitwise_equal(
            schedule_energy_sweep(s, [p], window, sleep=platform.sleep),
            [schedule_energy(s, p, window, sleep=platform.sleep)])

    def test_infeasible_point_raises_like_scalar(self, packed):
        s, platform, _ = packed
        # A window shorter than the makespan at the slowest frequency.
        slow = platform.ladder[0]
        window = 0.5 * s.makespan / slow.frequency
        feasible = [p for p in platform.ladder
                    if s.makespan <= window * p.frequency * (1.0 + 1e-9)]
        ordered = list(platform.ladder)
        with pytest.raises(ValueError) as scalar_exc:
            for p in ordered:
                schedule_energy(s, p, window)
        with pytest.raises(ValueError) as sweep_exc:
            schedule_energy_sweep(s, ordered, window)
        assert str(sweep_exc.value) == str(scalar_exc.value)
        assert len(feasible) < len(ordered)

    def test_duplicate_points_are_evaluated_independently(self, packed):
        s, platform, window = packed
        p = platform.ladder.max_point
        out = schedule_energy_sweep(s, [p, p, p], window,
                                    sleep=platform.sleep)
        assert out[0] == out[1] == out[2]

    def test_unemployed_processors_cost_nothing(self):
        """A 1-task graph on many processors only pays for processor 0."""
        platform = default_platform()
        g = stg_random_graph(1, 0).scaled(3.1e6)
        deadline = 2.0 * critical_path_length(g)
        d = task_deadlines(g, deadline)
        s = list_schedule(g, 8, d)
        window = platform.seconds(deadline)
        points = [p for p in platform.ladder
                  if s.makespan <= window * p.frequency * (1.0 + 1e-9)]
        assert_bitwise_equal(
            schedule_energy_sweep(s, points, window, sleep=platform.sleep),
            [schedule_energy(s, p, window, sleep=platform.sleep)
             for p in points])
