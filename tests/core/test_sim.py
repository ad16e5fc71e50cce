"""Tests for the trace-level simulator (states, traces, engine)."""

import pytest

from repro.core import Heuristic, default_platform, lamps_ps, paper_suite, \
    schedule_energy, sns
from repro.graphs.analysis import critical_path_length
from repro.graphs.generators import stg_random_graph
from repro.sim import (
    DEFAULT_TRANSITIONS,
    PowerTrace,
    ProcState,
    TraceSegment,
    TransitionModel,
    execute,
)


@pytest.fixture(scope="module")
def plan():
    g = stg_random_graph(40, 4).scaled(3.1e6)
    deadline = 2 * critical_path_length(g)
    return lamps_ps(g, deadline)


class TestTransitionModel:
    def test_defaults_match_paper(self):
        assert DEFAULT_TRANSITIONS.energy == pytest.approx(483e-6)
        assert DEFAULT_TRANSITIONS.total_latency == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            TransitionModel(down_latency=-1.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            TransitionModel(energy=-1.0)


class TestTraceSegment:
    def test_duration_and_mean_power(self):
        s = TraceSegment(0, 1.0, 3.0, ProcState.IDLE, 0.8)
        assert s.duration == 2.0
        assert s.mean_power == pytest.approx(0.4)

    def test_impulse_mean_power(self):
        s = TraceSegment(0, 1.0, 1.0, ProcState.TRANS_DOWN, 2e-4)
        assert s.mean_power == float("inf")

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            TraceSegment(0, 2.0, 1.0, ProcState.RUN, 0.1)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            TraceSegment(0, 0.0, 1.0, ProcState.RUN, -0.1)


class TestCrossValidation:
    def test_trace_equals_analytic_with_ps(self, plan):
        trace = execute(plan.schedule, plan.point, plan.deadline_seconds)
        trace.validate()
        assert trace.energy() == pytest.approx(plan.total_energy,
                                               rel=1e-12)

    def test_trace_equals_analytic_without_ps(self):
        g = stg_random_graph(40, 7).scaled(3.1e6)
        deadline = 2 * critical_path_length(g)
        r = sns(g, deadline)
        trace = execute(r.schedule, r.point, r.deadline_seconds,
                        shutdown=False)
        trace.validate()
        assert trace.energy() == pytest.approx(r.total_energy, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_cross_validation_pool(self, seed):
        plat = default_platform()
        g = stg_random_graph(30, seed).scaled(3.1e6)
        deadline = 4 * critical_path_length(g)
        r = lamps_ps(g, deadline)
        trace = execute(r.schedule, r.point, r.deadline_seconds)
        analytic = schedule_energy(r.schedule, r.point,
                                   r.deadline_seconds, sleep=plat.sleep)
        assert trace.energy() == pytest.approx(analytic.total, rel=1e-12)
        # Every concrete heuristic's schedule at 50 tasks, 2 x CPL.
        g = stg_random_graph(50, seed).scaled(3.1e6)
        results = paper_suite(g, 2 * critical_path_length(g))
        for h in (Heuristic.SNS, Heuristic.LAMPS, Heuristic.SNS_PS,
                  Heuristic.LAMPS_PS):
            r = results[h]
            trace = execute(r.schedule, r.point, r.deadline_seconds,
                            shutdown=h in (Heuristic.SNS_PS,
                                           Heuristic.LAMPS_PS))
            trace.validate()
            assert trace.energy() == pytest.approx(r.total_energy,
                                                   rel=1e-12), h

    def test_energy_by_state_sums_to_total(self, plan):
        trace = execute(plan.schedule, plan.point, plan.deadline_seconds)
        assert sum(trace.energy_by_state().values()) == pytest.approx(
            trace.energy())

    def test_run_energy_matches_busy(self, plan):
        plat = default_platform()
        trace = execute(plan.schedule, plan.point, plan.deadline_seconds)
        analytic = schedule_energy(plan.schedule, plan.point,
                                   plan.deadline_seconds,
                                   sleep=plat.sleep)
        assert trace.energy_by_state()[ProcState.RUN] == pytest.approx(
            analytic.busy)


class TestLatencies:
    def test_latencies_shrink_sleep_span(self, plan):
        instant = execute(plan.schedule, plan.point,
                          plan.deadline_seconds)
        slow = execute(plan.schedule, plan.point, plan.deadline_seconds,
                       transitions=TransitionModel(down_latency=1e-3,
                                                   up_latency=1e-3))
        for proc in instant.processors:
            assert slow.time_in_state(proc, ProcState.SLEEP) <= \
                instant.time_in_state(proc, ProcState.SLEEP) + 1e-12

    def test_huge_latency_disables_sleep(self, plan):
        trace = execute(plan.schedule, plan.point, plan.deadline_seconds,
                        transitions=TransitionModel(down_latency=1e6,
                                                    up_latency=1e6))
        for proc in trace.processors:
            assert trace.time_in_state(proc, ProcState.SLEEP) == 0.0

    def test_wake_finishes_before_next_task(self, plan):
        trans = TransitionModel(down_latency=5e-4, up_latency=5e-4)
        trace = execute(plan.schedule, plan.point, plan.deadline_seconds,
                        transitions=trans)
        for proc in trace.processors:
            segs = trace.segments(proc)
            for a, b in zip(segs, segs[1:]):
                if a.state is ProcState.TRANS_UP:
                    # A wake completes exactly where the next segment
                    # (task or window end) begins.
                    assert b.start == pytest.approx(a.end)


class TestTraceQueries:
    def test_state_at(self, plan):
        trace = execute(plan.schedule, plan.point, plan.deadline_seconds)
        first_task = plan.schedule.processor_tasks(0)[0]
        t_mid = (first_task.start + first_task.finish) / 2 \
            / plan.point.frequency
        assert trace.state_at(0, t_mid) is ProcState.RUN

    def test_state_at_out_of_range(self, plan):
        trace = execute(plan.schedule, plan.point, plan.deadline_seconds)
        with pytest.raises(ValueError):
            trace.state_at(0, plan.deadline_seconds * 2)

    def test_unemployed_processor_is_off(self, plan):
        trace = execute(plan.schedule, plan.point, plan.deadline_seconds)
        ghost = plan.schedule.n_processors + 5
        assert trace.state_at(ghost, 0.0) is ProcState.OFF

    def test_utilization_bounds(self, plan):
        trace = execute(plan.schedule, plan.point, plan.deadline_seconds)
        for proc in trace.processors:
            assert 0.0 < trace.utilization(proc) <= 1.0

    def test_validate_catches_gap(self):
        segs = [
            TraceSegment(0, 0.0, 1.0, ProcState.RUN, 0.1),
            TraceSegment(0, 2.0, 3.0, ProcState.IDLE, 0.1),  # hole 1..2
        ]
        trace = PowerTrace(segs, 3.0)
        with pytest.raises(AssertionError, match="gap"):
            trace.validate()

    def test_validate_catches_short_horizon(self):
        segs = [TraceSegment(0, 0.0, 1.0, ProcState.RUN, 0.1)]
        trace = PowerTrace(segs, 5.0)
        with pytest.raises(AssertionError, match="ends"):
            trace.validate()


class TestEngineErrors:
    def test_window_too_small_raises(self, plan):
        with pytest.raises(ValueError, match="window"):
            execute(plan.schedule, plan.point,
                    plan.deadline_seconds / 100)


class TestRenderTrace:
    def test_rows_and_legend(self, plan):
        from repro.sim.render import render_trace

        trace = execute(plan.schedule, plan.point, plan.deadline_seconds)
        out = render_trace(trace)
        rows = [l for l in out.splitlines() if l.startswith("P")]
        assert len(rows) == len(trace.processors)
        assert "# run" in out

    def test_running_and_sleeping_glyphs_present(self, plan):
        from repro.sim.render import render_trace

        trace = execute(plan.schedule, plan.point, plan.deadline_seconds)
        out = render_trace(trace, width=100)
        assert "#" in out
        # This plan's trailing gaps sleep.
        assert "z" in out

    def test_width_validation(self, plan):
        from repro.sim.render import render_trace

        trace = execute(plan.schedule, plan.point, plan.deadline_seconds)
        with pytest.raises(ValueError):
            render_trace(trace, width=4)
