"""Searches that plan every candidate first, then sweep once.

:func:`repro.comm.heuristics.comm_lamps` and
:func:`repro.core.exhaustive.optimal_single_frequency` collect their
candidates' ladder sweeps and evaluate them with one
:func:`repro.core.plans.sweep_energies` call.  These tests replay the
per-schedule loop they replace — one scalar
:func:`repro.core.energy.schedule_energy` per (candidate, point),
selecting with a strict ``<`` as it goes — and require the same energy,
point, processor count and schedule, bitwise.  A constant evaluator
turns every candidate into a tie, which pins the first-candidate
tie-break.
"""

import importlib
import math

import numpy as np
import pytest

from repro.comm.model import uniform_ccr
from repro.comm.scheduler import comm_aware_schedule
from repro.core.energy import EnergyBreakdown, schedule_energy
from repro.core.exhaustive import enumerate_schedules, \
    optimal_single_frequency
from repro.core.platform import default_platform
from repro.core.stretch import feasible_points, required_frequency
from repro.graphs.analysis import critical_path_length
from repro.graphs.generators import stg_random_graph
from repro.sched.deadlines import task_deadlines

heuristics_mod = importlib.import_module("repro.comm.heuristics")
exhaustive_mod = importlib.import_module("repro.core.exhaustive")

PLATFORM = default_platform()


def scalar_energy(schedule, point, window, sleep):
    return schedule_energy(schedule, point, window, sleep=sleep)


def constant_energy(schedule, point, window, sleep):
    return EnergyBreakdown(busy=1.0, idle=0.0)


def constant_sweeps(sweeps):
    return [[constant_energy(ps.schedule, p, ps.deadline_seconds, ps.sleep)
             for p in ps.points] for ps in sweeps]


def replay_comm_lamps(cgraph, deadline, shutdown, evaluate):
    """The per-count loop ``comm_lamps`` ran before it batched."""
    graph = cgraph.graph
    d = task_deadlines(graph, deadline)
    window = PLATFORM.seconds(deadline)
    sleep = PLATFORM.sleep if shutdown else None
    best = None
    prev_makespan = math.inf
    stall = 0
    for n in range(1, graph.n + 1):
        s = comm_aware_schedule(cgraph, n, d)
        f_req = required_frequency(s, d, PLATFORM.fmax)
        if f_req <= PLATFORM.fmax * (1.0 + 1e-9):
            points = feasible_points(PLATFORM.ladder, f_req)
            if sleep is None:
                points = points[:1]
            for point in points:
                e = evaluate(s, point, window, sleep)
                if best is None or e.total < best[0].total:
                    best = (e, point, s)
        if s.makespan >= prev_makespan - 1e-9:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
            prev_makespan = s.makespan
    return best


def replay_optimal(graph, deadline, shutdown, max_processors, evaluate):
    """The per-schedule loop ``optimal_single_frequency`` ran before."""
    d = task_deadlines(graph, deadline)
    window = PLATFORM.seconds(deadline)
    sleep = PLATFORM.sleep if shutdown else None
    best = None
    for n in range(1, min(graph.n, max_processors) + 1):
        for s in enumerate_schedules(graph, n):
            f_req = required_frequency(s, d, PLATFORM.fmax)
            if f_req > PLATFORM.fmax * (1.0 + 1e-9):
                continue
            for point in feasible_points(PLATFORM.ladder, f_req):
                e = evaluate(s, point, window, sleep)
                if best is None or e.total < best[0].total:
                    best = (e, point, s)
    return best


def assert_same_choice(result, replayed):
    energy, point, schedule = replayed
    assert result.energy == energy
    assert result.point == point
    assert result.n_processors == schedule.employed_processors
    assert np.array_equal(result.schedule.start_times, schedule.start_times)
    assert np.array_equal(result.schedule.task_processors,
                          schedule.task_processors)


def _comm_instance(seed):
    g = stg_random_graph(25, seed).scaled(3.1e6)
    return uniform_ccr(g, 1.0, seed), 2.0 * critical_path_length(g)


def _tiny_instance(seed):
    g = stg_random_graph(6, seed).scaled(3.1e6)
    return g, 2.0 * critical_path_length(g)


class TestCommLampsReplay:
    @pytest.mark.parametrize("shutdown", [False, True])
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_matches_per_count_loop(self, seed, shutdown):
        cgraph, deadline = _comm_instance(seed)
        result = heuristics_mod.comm_lamps(cgraph, deadline,
                                           shutdown=shutdown)
        assert_same_choice(result, replay_comm_lamps(
            cgraph, deadline, shutdown, scalar_energy))

    @pytest.mark.parametrize("shutdown", [False, True])
    def test_ties_keep_the_first_candidate(self, monkeypatch, shutdown):
        cgraph, deadline = _comm_instance(3)
        monkeypatch.setattr(heuristics_mod, "sweep_energies",
                            constant_sweeps)
        result = heuristics_mod.comm_lamps(cgraph, deadline,
                                           shutdown=shutdown)
        assert_same_choice(result, replay_comm_lamps(
            cgraph, deadline, shutdown, constant_energy))


class TestOptimalReplay:
    @pytest.mark.parametrize("shutdown", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_matches_per_schedule_loop(self, seed, shutdown):
        g, deadline = _tiny_instance(seed)
        result = optimal_single_frequency(g, deadline, shutdown=shutdown,
                                          max_processors=3)
        assert_same_choice(result, replay_optimal(
            g, deadline, shutdown, 3, scalar_energy))

    def test_ties_keep_the_first_candidate(self, monkeypatch):
        g, deadline = _tiny_instance(1)
        monkeypatch.setattr(exhaustive_mod, "sweep_energies",
                            constant_sweeps)
        result = optimal_single_frequency(g, deadline, max_processors=3)
        assert_same_choice(result, replay_optimal(
            g, deadline, True, 3, constant_energy))
