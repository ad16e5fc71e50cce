"""Regression tests for the anomaly and empty-ladder edge cases.

Scheduling anomalies (Graham: more processors can *lengthen* a list
schedule) make feasibility non-monotone in the processor count, which
the LAMPS searches historically assumed away.  Deterministic anomaly
instances are hard to construct organically, so these tests monkeypatch
``repro.core.lamps.list_schedule`` (and the suite's
``repro.core.suite.list_schedule``) with handcrafted (but structurally
valid) schedules whose makespans follow a chosen non-monotone pattern.
"""

import importlib

import numpy as np
import pytest

from repro.audit import AuditLog
from repro.core.energy import EnergyBreakdown
from repro.core.lamps import (
    _candidate_points,
    energy_vs_processors,
    lamps_search,
)
from repro.core.results import Heuristic, InfeasibleScheduleError
from repro.core.sns import schedule_and_stretch
from repro.core.suite import paper_suite
from repro.graphs.dag import TaskGraph
from repro.sched.deadlines import task_deadlines
from repro.sched.list_scheduler import list_schedule
from repro.sched.schedule import Placement, Schedule

# ``repro.core`` re-exports the ``lamps`` *function*, shadowing the
# submodule attribute — resolve the module itself for monkeypatching.
lamps_mod = importlib.import_module("repro.core.lamps")
suite_mod = importlib.import_module("repro.core.suite")


def _independent_graph(n_tasks: int) -> TaskGraph:
    return TaskGraph({i: 1.0 for i in range(n_tasks)}, [],
                     name=f"indep{n_tasks}")


def _line_schedule(graph: TaskGraph, n: int, makespan: float) -> Schedule:
    """A valid schedule of independent unit tasks with a chosen makespan.

    All tasks sit back-to-back on processor 0 except the last, which is
    shifted right so the schedule finishes exactly at ``makespan``.
    """
    ids = graph.node_ids
    placements = [Placement(v, 0, float(i), float(i) + 1.0)
                  for i, v in enumerate(ids[:-1])]
    placements.append(Placement(ids[-1], 0, makespan - 1.0, makespan))
    assert makespan - 1.0 >= len(ids) - 1, "placements would overlap"
    return Schedule(graph, n, placements)


def _patch_makespans(monkeypatch, makespan_by_n):
    def fake_list_schedule(graph, n, deadlines, policy="edf", obs=None):
        return _line_schedule(graph, n, makespan_by_n[n])
    for mod in (lamps_mod, suite_mod):
        monkeypatch.setattr(mod, "list_schedule", fake_list_schedule)


#: (makespan per processor count, deadline) patterns with non-monotone
#: feasibility over n = 1..4.
ANOMALIES = [
    ({1: 30.0, 2: 8.0, 3: 9.0, 4: 8.0}, 8.5),
    ({1: 10.0, 2: 16.0, 3: 9.0, 4: 9.0}, 9.5),
    ({1: 30.0, 2: 9.0, 3: 16.0, 4: 8.0}, 9.5),
]


class TestAnomalousFeasibility:
    def test_lamps_skips_infeasible_middle_count(self, monkeypatch):
        # Feasibility pattern over n = 1..4 at D = 8.5: no/yes/NO/yes —
        # n = 3 is an anomaly.  The sweep must skip it and still return
        # a deadline-meeting configuration.
        g = _independent_graph(4)
        _patch_makespans(monkeypatch, {1: 30.0, 2: 8.0, 3: 9.0, 4: 8.0})
        log = AuditLog(strict=True)
        r = lamps_search(g, 8.5, audit=log)
        assert r.schedule.makespan <= 8.5
        assert log.anomaly_retries >= 1
        assert log.clean

    def test_lamps_ps_sweep_survives_anomalous_count(self, monkeypatch):
        # Same anomaly under +PS: the sweep skips n = 3 and the fully
        # spread extra candidate (n = 4, feasible here) still competes.
        g = _independent_graph(4)
        _patch_makespans(monkeypatch, {1: 30.0, 2: 8.0, 3: 9.0, 4: 8.0})
        log = AuditLog(strict=True)
        r = lamps_search(g, 8.5, shutdown=True, audit=log)
        assert r.schedule.makespan <= 8.5
        assert log.anomaly_retries >= 1
        assert log.clean

    @pytest.mark.parametrize("makespans,deadline", ANOMALIES[1:])
    def test_phase1_lands_on_feasible_count(self, monkeypatch, makespans,
                                            deadline):
        # Non-monotone feasibility must never leak an infeasible count
        # out of Phase 1 into the final result.
        g = _independent_graph(4)
        _patch_makespans(monkeypatch, makespans)
        for shutdown in (False, True):
            r = lamps_search(g, deadline, shutdown=shutdown, strict=True)
            assert r.schedule.makespan <= deadline


class TestSuiteAnomalies:
    """The batched suite runs the anomaly rules of :func:`lamps_search`."""

    @pytest.mark.parametrize("makespans,deadline", ANOMALIES)
    def test_suite_lamps_equal_lamps_search(self, monkeypatch, makespans,
                                            deadline):
        g = _independent_graph(4)
        _patch_makespans(monkeypatch, makespans)
        suite = paper_suite(g, deadline, strict=True)
        for h, shutdown in ((Heuristic.LAMPS, False),
                            (Heuristic.LAMPS_PS, True)):
            want = lamps_search(g, deadline, shutdown=shutdown, strict=True)
            got = suite[h]
            assert got.energy == want.energy, h
            assert got.point == want.point, h
            assert got.n_processors == want.n_processors, h
            for name in ("start_times", "finish_times", "task_processors"):
                assert np.array_equal(getattr(got.schedule, name),
                                      getattr(want.schedule, name)), h
            assert got.schedule.makespan <= deadline, h

    def test_infeasible_full_spread_raises_in_both(self, monkeypatch):
        g = _independent_graph(4)
        _patch_makespans(monkeypatch, {1: 30.0, 2: 8.0, 3: 8.0, 4: 9.0})
        with pytest.raises(InfeasibleScheduleError):
            paper_suite(g, 8.5)
        with pytest.raises(InfeasibleScheduleError):
            lamps_search(g, 8.5)


class TestFig6SweepTruncation:
    def test_sweep_continues_past_infeasible_stretch(self, monkeypatch):
        # n = 3 is infeasible; the plateau check used to compare n = 4's
        # makespan (8.1) against the pre-anomaly one (8.0) and stop the
        # sweep one point early, losing the n = 5 row.
        g = _independent_graph(5)
        _patch_makespans(
            monkeypatch, {1: 20.0, 2: 8.0, 3: 9.0, 4: 8.1, 5: 8.6})
        out = energy_vs_processors(g, 8.2)
        assert [n for n, _ in out] == [1, 2, 3, 4, 5]
        feasible = [n for n, e in out if e is not None]
        assert feasible == [2, 4]

    def test_counts_and_audit(self, monkeypatch):
        g = _independent_graph(5)
        _patch_makespans(
            monkeypatch, {1: 20.0, 2: 8.0, 3: 9.0, 4: 8.1, 5: 8.6})
        log = AuditLog(strict=True)
        out = energy_vs_processors(g, 8.2, audit=log)
        assert log.schedules_built == len(out) == 5
        assert log.anomaly_retries == 3  # n = 1, 3, 5 infeasible
        assert log.clean

    @pytest.mark.parametrize("cap", [0, -1])
    def test_non_positive_cap_rejected(self, fig4_graph, cap):
        with pytest.raises(ValueError, match="at least one processor"):
            energy_vs_processors(fig4_graph, 24.0, max_processors=cap)


class TestEmptyLadder:
    @pytest.fixture
    def schedule(self, diamond):
        return list_schedule(diamond, 2, task_deadlines(diamond, 10.0))

    def test_ps_path_raises_infeasible_not_bare_valueerror(
            self, schedule, platform):
        f_req = platform.fmax * (1.0 + 1e-6)
        with pytest.raises(InfeasibleScheduleError, match="GHz"):
            _candidate_points(schedule, f_req, platform, 1e-3,
                              platform.sleep)

    def test_stretch_path_raises_infeasible(self, schedule, platform):
        f_req = platform.fmax * (1.0 + 1e-6)
        with pytest.raises(InfeasibleScheduleError, match="ladder"):
            _candidate_points(schedule, f_req, platform, 1e-3, None)

    def test_message_names_the_graph_and_window(self, schedule, platform):
        with pytest.raises(InfeasibleScheduleError, match="diamond"):
            _candidate_points(schedule, platform.fmax * 2.0, platform,
                              0.5, platform.sleep)


class TestStrictIsANoOpOnResults:
    @pytest.mark.parametrize("shutdown", [False, True])
    def test_sns(self, fig4_graph, shutdown):
        plain = schedule_and_stretch(fig4_graph, 24.0, shutdown=shutdown)
        strict = schedule_and_stretch(fig4_graph, 24.0, shutdown=shutdown,
                                      strict=True)
        assert strict.energy == plain.energy
        assert strict.point == plain.point
        assert strict.n_processors == plain.n_processors

    @pytest.mark.parametrize("shutdown", [False, True])
    def test_lamps(self, fig4_graph, shutdown):
        plain = lamps_search(fig4_graph, 24.0, shutdown=shutdown)
        strict = lamps_search(fig4_graph, 24.0, shutdown=shutdown,
                              strict=True)
        assert strict.energy == plain.energy
        assert strict.point == plain.point
        assert strict.n_processors == plain.n_processors


class TestEnergyBreakdownRadd:
    def test_sum_over_sweep_results(self, fig4_graph):
        out = energy_vs_processors(fig4_graph, 24.0)
        parts = [e for _, e in out if e is not None]
        total = sum(parts)
        assert isinstance(total, EnergyBreakdown)
        assert total.total == pytest.approx(sum(p.total for p in parts))
