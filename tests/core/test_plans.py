"""Differential and accounting tests for the plan cache (PR 9).

The plan-memoization layer claims that sharing built schedules,
deadline vectors, top levels and required-frequency ratios across the
heuristic suite changes *nothing* observable: every heuristic result —
and, end-to-end, the campaign report JSON and exec-cache files — is
byte-identical with reuse on, with reuse forcibly disabled, and with
width aliasing on or off.  Those claims are asserted here with exact
(``==``) comparisons, alongside the accounting the cache exposes: the
hit/miss counters must match the reuse predicted from the distinct
``(graph, n, policy, priority-fingerprint)`` configurations a search
requests, and the width-aliasing theorem must hold as a property of
the scheduler itself.
"""

import hashlib
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import evaluate_all, lamps_search, paper_suite
from repro.core.lamps import energy_vs_processors
from repro.core.plans import PlanCache, PlannedSweep, plan_scope, \
    sweep_energies
from repro.core.platform import default_platform
from repro.core.energy import schedule_energy_sweep
from repro.core.stretch import feasible_points, required_frequency
from repro.graphs.analysis import critical_path_length
from repro.graphs.generators import stg_random_graph
from repro.obs import ObsLog
from repro.sched.deadlines import task_deadlines
from repro.sched.list_scheduler import list_schedule

from ..exec.test_identity_regression import GOLDEN_CACHE, GOLDEN_REPORT, \
    _CAMPAIGN_KWARGS


def _instance(n=40, seed=3, factor=2.0):
    g = stg_random_graph(n, seed).scaled(3.1e6)
    return g, factor * critical_path_length(g)


def _disable_reuse(monkeypatch):
    """Force every PlanCache lookup to miss — the historical behaviour.

    Clearing the memo dicts before each lookup makes the cache a pure
    pass-through while keeping the build/audit/counter plumbing live,
    so a run under this patch replays pre-plan-cache execution.
    """
    for name in ("schedule", "deadline_vector", "top_levels", "ratio"):
        real = getattr(PlanCache, name)

        def wiped(self, *args, _real=real, **kwargs):
            self._exact.clear()
            self._stall_free.clear()
            self._deadline_vecs.clear()
            self._tops.clear()
            self._key_fps.clear()
            self._ratios.clear()
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(PlanCache, name, wiped)


def assert_results_equal(got, want):
    assert set(got) == set(want)
    for h in want:
        a, b = got[h], want[h]
        assert a.energy == b.energy, h
        assert a.point == b.point, h
        assert a.n_processors == b.n_processors, h
        assert a.deadline_cycles == b.deadline_cycles, h
        assert a.meets_deadline == b.meets_deadline, h
        if (a.schedule is None) != (b.schedule is None):
            pytest.fail(f"{h}: schedule presence differs")
        if a.schedule is not None:
            assert np.array_equal(a.schedule.start_times,
                                  b.schedule.start_times), h
            assert np.array_equal(a.schedule.finish_times,
                                  b.schedule.finish_times), h
            assert np.array_equal(a.schedule.task_processors,
                                  b.schedule.task_processors), h


class TestCacheOnOffIdentity:
    @given(st.integers(min_value=0, max_value=2_000),
           st.sampled_from([12, 25, 40]),
           st.sampled_from([1.5, 2.0, 4.0]))
    @settings(max_examples=15, deadline=None)
    def test_suite_results_identical(self, seed, n, factor):
        g, deadline = _instance(n, seed, factor)
        shared = paper_suite(g, deadline)
        with pytest.MonkeyPatch.context() as mp:
            _disable_reuse(mp)
            uncached = paper_suite(g, deadline)
        assert_results_equal(shared, uncached)

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=10, deadline=None)
    def test_alias_on_off_identical(self, seed):
        g, deadline = _instance(seed=seed)
        aliased = evaluate_all(g, deadline, plans=PlanCache(alias=True))
        exact = evaluate_all(g, deadline, plans=PlanCache(alias=False))
        assert_results_equal(aliased, exact)

    def test_strict_audit_results_identical_to_shared(self):
        g, deadline = _instance()
        shared = paper_suite(g, deadline)
        strict = paper_suite(g, deadline, strict=True)
        assert_results_equal(shared, strict)


class TestEndToEndBytes:
    """The campaign bytes cannot depend on plan reuse at all."""

    def test_report_sha_with_reuse_disabled(self, monkeypatch):
        from repro.exec import ExecOptions
        from tests.exec.test_identity_regression import _report_sha

        _disable_reuse(monkeypatch)
        sha = _report_sha(ExecOptions(jobs=1, use_cache=False))
        assert sha == GOLDEN_REPORT

    def test_cache_files_with_reuse_disabled(self, tmp_path, monkeypatch):
        from repro.exec import ExecOptions
        from repro.experiments import fig10_11_relative_energy

        _disable_reuse(monkeypatch)
        fig10_11_relative_energy.run(
            exec_options=ExecOptions(jobs=1, use_cache=True,
                                     cache_dir=tmp_path / "c"),
            **_CAMPAIGN_KWARGS)
        h = hashlib.sha256()
        for f in sorted(pathlib.Path(tmp_path / "c").rglob("*.json")):
            h.update(f.name.encode())
            h.update(f.read_bytes())
        assert h.hexdigest() == GOLDEN_CACHE


class TestHitMissAccounting:
    def test_one_build_per_distinct_config(self, monkeypatch):
        """LAMPS issues one list_schedule per distinct configuration.

        With aliasing off, misses must equal the number of distinct
        ``(n, policy, deadline-fingerprint)`` keys the search requested
        and hits cover every repeat, with the obs counters agreeing.
        """
        g, deadline = _instance(n=60, seed=9)
        plans = PlanCache(alias=False)
        obs = ObsLog()
        requested = []
        real = PlanCache.schedule

        def spy(self, graph, n, deadlines, **kwargs):
            requested.append((id(graph), n, kwargs.get("policy", "edf"),
                              None if deadlines is None
                              else deadlines.tobytes()))
            return real(self, graph, n, deadlines, **kwargs)

        monkeypatch.setattr(PlanCache, "schedule", spy)
        lamps_search(g, deadline, shutdown=True, plans=plans, obs=obs)
        distinct = len(set(requested))
        assert requested and distinct < len(requested)  # reuse happened
        assert plans.misses == distinct
        assert plans.hits == len(requested) - distinct
        assert obs.counters["plan_cache.misses"] == plans.misses
        assert obs.counters["plan_cache.hits"] == plans.hits
        assert obs.counters["sched.schedules_built"] == distinct

    def test_n_sweep_rerun_is_all_hits(self):
        """A second identical N-sweep on a warm cache builds nothing."""
        g, deadline = _instance(n=40, seed=5)
        plans = PlanCache(alias=False)
        first = energy_vs_processors(g, deadline, shutdown=True,
                                     plans=plans, obs=ObsLog())
        builds = plans.misses
        assert builds >= len(first)  # one per feasible count at least
        rerun_obs = ObsLog()
        second = energy_vs_processors(g, deadline, shutdown=True,
                                      plans=plans, obs=rerun_obs)
        assert second == first
        assert plans.misses == builds  # nothing new was built
        assert rerun_obs.counters.get("plan_cache.misses", 0) == 0
        assert rerun_obs.counters["plan_cache.hits"] > 0
        assert "sched.schedules_built" not in rerun_obs.counters

    def test_aliasing_reduces_builds(self):
        # Sweep well past the graph's width so counts beyond it are
        # stall-free and servable from one aliased plan.
        g, deadline = _instance(n=40, seed=5)
        exact = PlanCache(alias=False)
        energy_vs_processors(g, deadline, max_processors=16, plans=exact)
        aliased = PlanCache(alias=True)
        energy_vs_processors(g, deadline, max_processors=16,
                             plans=aliased)
        assert aliased.misses < exact.misses


class TestWidthAliasing:
    @given(st.integers(min_value=0, max_value=2_000),
           st.sampled_from([8, 20, 40]),
           st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_stall_free_schedules_are_width_invariant(self, seed, n,
                                                      procs):
        """The theorem itself: employed < n ⟹ identical for n' > n."""
        g, deadline = _instance(n, seed)
        d = task_deadlines(g, deadline)
        s = list_schedule(g, procs, d)
        if s.employed_processors == procs:
            return  # possibly stalled; the theorem says nothing
        wider = list_schedule(g, procs + 3, d)
        assert np.array_equal(s.start_times, wider.start_times)
        assert np.array_equal(s.finish_times, wider.finish_times)
        assert np.array_equal(s.task_processors, wider.task_processors)

    def test_cache_serves_wider_counts_from_stall_free_plan(self):
        g, deadline = _instance(n=20, seed=1)
        d = task_deadlines(g, deadline)
        plans = PlanCache(alias=True)
        base = plans.schedule(g, 16, d)
        assert base.employed_processors < 16
        assert plans.misses == 1
        again = plans.schedule(g, 32, d)
        assert again is base
        assert plans.hits == 1
        # An exact-width request below the employed count still builds.
        narrow = plans.schedule(g, 1, d)
        assert narrow is not base
        assert plans.misses == 2


class TestPlanScope:
    def test_audited_calls_get_fresh_exact_cache(self):
        from repro.audit.report import AuditLog

        shared = PlanCache()
        scoped = plan_scope(shared, AuditLog())
        assert scoped is not shared
        assert scoped.alias is False

    def test_unaudited_calls_share_or_create(self):
        shared = PlanCache()
        assert plan_scope(shared, None) is shared
        fresh = plan_scope(None, None)
        assert isinstance(fresh, PlanCache) and fresh.alias is True


class TestSweepEnergies:
    def test_matches_serial_sweeps_bitwise(self):
        platform = default_platform()
        g, deadline = _instance(n=30, seed=4)
        d = task_deadlines(g, deadline)
        window = platform.seconds(deadline)
        planned = []
        for procs in (2, 4, 8):
            s = list_schedule(g, procs, d)
            pts = feasible_points(
                platform.ladder, required_frequency(s, d, platform.fmax))
            planned.append(PlannedSweep(schedule=s, points=tuple(pts),
                                        sleep=platform.sleep))
        # Repeat one schedule so the dedup path is exercised.
        planned.append(PlannedSweep(schedule=planned[0].schedule,
                                    points=planned[0].points, sleep=None))
        got = sweep_energies(planned, window)
        want = [schedule_energy_sweep(ps.schedule, list(ps.points), window,
                                      sleep=ps.sleep) for ps in planned]
        assert got == want

    def test_empty(self):
        assert sweep_energies([], 1.0) == []
