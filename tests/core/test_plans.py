"""Differential and accounting tests for the plan cache (PR 9).

The plan-memoization layer claims that sharing built schedules,
deadline vectors, top levels and required-frequency ratios across the
heuristic suite changes *nothing* observable: every heuristic result —
and, end-to-end, the campaign report JSON and exec-cache files — is
byte-identical with reuse on and with reuse forcibly disabled, with
width aliasing serving the wider counts.  Those claims are asserted here with exact
(``==``) comparisons, alongside the accounting the cache exposes: the
hit/miss counters must match the reuse predicted from the distinct
``(graph, n, policy, priority-fingerprint)`` configurations a search
requests, and the width-aliasing theorem must hold as a property of
the scheduler itself — and, under strict, on every alias the cache
serves.
"""

import hashlib
import importlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.report import AuditLog, AuditViolationError
from repro.core import evaluate_all, lamps_search, paper_suite, \
    paper_suite_batch
from repro.core.lamps import energy_vs_processors
from repro.core.plans import PlanCache, PlannedSweep, sweep_energies
from repro.core.platform import default_platform
from repro.core.energy import schedule_energy
from repro.core.stretch import feasible_points, required_frequency
from repro.exec.cache import summarize_results
from repro.graphs.dag import TaskGraph
from repro.graphs.analysis import critical_path_length
from repro.graphs.generators import stg_random_graph
from repro.obs import ObsLog
from repro.sched import ckernel
from repro.sched.deadlines import task_deadlines
from repro.sched.list_scheduler import list_schedule
from repro.sched.schedule import Schedule

from ..exec.test_identity_regression import GOLDEN_CACHE, GOLDEN_REPORT, \
    _CAMPAIGN_KWARGS


# ``repro.core`` re-exports the ``lamps`` *function*, shadowing the
# submodule attribute — resolve the modules themselves for patching.
lamps_mod = importlib.import_module("repro.core.lamps")
plans_mod = importlib.import_module("repro.core.plans")


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


def _exact_counts(monkeypatch):
    """Route LAMPS through a pass-through builder: exact per-count caching.

    The wrapper schedules exactly like ``list_schedule`` but is not the
    canonical scheduler, so the cache keys every count separately and
    never width-aliases — one build per distinct requested count.
    """
    def passthrough(*args, **kwargs):
        return list_schedule(*args, **kwargs)

    monkeypatch.setattr(lamps_mod, "list_schedule", passthrough)


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
        aliased = evaluate_all(g, deadline, plans=PlanCache())
        with pytest.MonkeyPatch.context() as mp:
            _disable_reuse(mp)
            exact = evaluate_all(g, deadline)
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

        With exact per-count caching, misses must equal the number of
        distinct ``(n, policy, deadline-fingerprint)`` keys the search
        requested and hits cover every repeat, with the obs counters
        agreeing.
        """
        _exact_counts(monkeypatch)
        g, deadline = _instance(n=60, seed=9)
        plans = PlanCache()
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

    def test_n_sweep_rerun_is_all_hits(self, monkeypatch):
        """A second identical N-sweep on a warm cache builds nothing."""
        _exact_counts(monkeypatch)
        g, deadline = _instance(n=40, seed=5)
        plans = PlanCache()
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
        aliased = PlanCache()
        energy_vs_processors(g, deadline, max_processors=16,
                             plans=aliased)
        exact = PlanCache()
        with pytest.MonkeyPatch.context() as mp:
            _exact_counts(mp)
            energy_vs_processors(g, deadline, max_processors=16,
                                 plans=exact)
        assert exact.misses == 16
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
        plans = PlanCache()
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


class TestStrictSharesTheCache:
    def test_strict_uses_the_callers_cache(self):
        g, deadline = _instance(n=40, seed=5)
        plans = PlanCache()
        lamps_search(g, deadline, shutdown=True, plans=plans)
        builds = plans.misses
        log = AuditLog(strict=True)
        strict = lamps_search(g, deadline, shutdown=True, plans=plans,
                              audit=log)
        plain = lamps_search(g, deadline, shutdown=True)
        assert plans.misses == builds  # the warm cache served strict
        assert log.schedules_built == 0
        assert strict.energy == plain.energy
        assert strict.point == plain.point

    def test_every_alias_serve_is_verified(self):
        g, deadline = _instance(n=20, seed=1)
        d = task_deadlines(g, deadline)
        plans = PlanCache()
        log = AuditLog(strict=True)
        # On the C kernel a build also brings its required-frequency
        # ratio, which strict runs check bitwise.
        ratio_checks = int(ckernel.CKERNEL_ACTIVE)
        plans.schedule(g, 16, d, log=log)
        # structure of the build
        assert log.invariant_checks_passed == 1 + ratio_checks
        plans.schedule(g, 32, d, log=log)  # alias serve
        assert plans.misses == 1
        assert log.schedules_built == 1
        # the bytewise check
        assert log.invariant_checks_passed == 2 + ratio_checks

    def test_shifted_alias_serve_is_a_violation(self, monkeypatch):
        """A stall-free plan with one start time shifted is caught when
        the cache serves it for a wider count."""
        g, deadline = _instance(n=20, seed=1)
        d = task_deadlines(g, deadline)

        def corrupted(graph, n, deadlines, **kwargs):
            s = list_schedule(graph, n, deadlines, **kwargs)
            if n != 16:
                return s
            starts = s.start_times.copy()
            starts[-1] += 1.0
            return Schedule.from_arrays(graph, n, starts,
                                        s.finish_times.copy(),
                                        s.task_processors.copy())

        # Replacing the canonical name keeps aliasing on for the patch.
        monkeypatch.setattr(plans_mod, "list_schedule", corrupted)
        plans = PlanCache()
        assert plans.schedule(g, 16, d).employed_processors < 16
        log = AuditLog(strict=True)
        with pytest.raises(AuditViolationError, match=r"^\[aliasing\]"):
            plans.schedule(g, 32, d, log=log)
        assert [v.kind for v in log.violations] == ["aliasing"]
        assert "start_times" in log.violations[0].message


class TestOrderKeyedSharing:
    """Schedules are keyed by key order, so deadlines share them."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_served_schedule_equals_fresh_build(self, data):
        """Whatever a warm cache serves is what a fresh build gives.

        The deadline pool has values that only float64 tells apart, so
        a fingerprint coarser than the exact key order would serve one
        vector's schedule for a differently ordered one.
        """
        n = data.draw(st.integers(min_value=1, max_value=8))
        weights = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]),
                                     min_size=n, max_size=n))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=n)) if pairs else []
        g = TaskGraph(dict(enumerate(weights)), edges)
        pool = st.sampled_from([0.5, 1.0, 1.0 + 2.0 ** -40, 2.0, np.inf])
        plans = PlanCache()
        for _ in range(3):
            d = np.array(data.draw(st.lists(pool, min_size=n, max_size=n)))
            for procs in (1, 2, n + 1):
                served = plans.schedule(g, procs, d)
                fresh = list_schedule(g, procs, d)
                assert served.start_times.tobytes() == \
                    fresh.start_times.tobytes()
                assert served.task_processors.tobytes() == \
                    fresh.task_processors.tobytes()

    def test_scaled_deadlines_share_one_build(self):
        g, deadline = _instance(n=30, seed=2)
        d = task_deadlines(g, deadline)
        plans = PlanCache()
        built = plans.schedule(g, 3, d)
        assert plans.schedule(g, 3, d * 2.0) is built  # same order
        assert plans.misses == 1 and plans.hits == 1
        reversed_keys = -d  # every strict pair swaps
        assert plans.schedule(g, 3, reversed_keys) is not built
        assert plans.misses == 2

    def test_every_cross_key_serve_is_verified(self):
        """One bytewise check per serve built from other keys."""
        g, deadline = _instance(n=20, seed=1)
        d = task_deadlines(g, deadline)
        d2 = d * 2.0  # same order, other bytes
        plans = PlanCache()
        log = AuditLog(strict=True)
        ratio_checks = int(ckernel.CKERNEL_ACTIVE)
        plans.schedule(g, 1, d, log=log)
        checks = 1 + ratio_checks
        assert log.invariant_checks_passed == checks
        plans.schedule(g, 1, d, log=log)  # its own keys: no check
        assert log.invariant_checks_passed == checks
        for _ in range(2):
            plans.schedule(g, 1, d2, log=log)  # cross-key serve
            checks += 1
            assert log.invariant_checks_passed == checks
        # A width alias served for other keys: still one check.  (One
        # processor always stalls, so nothing aliased before.)
        base = plans.schedule(g, g.n, d, log=log)
        checks += 1 + ratio_checks
        assert base.employed_processors < g.n
        plans.schedule(g, g.n + 5, d2, log=log)
        checks += 1
        assert log.invariant_checks_passed == checks
        assert log.schedules_built == plans.misses == 2
        assert plans.hits == 4
        assert not log.violations

    def test_cross_key_mismatch_is_a_violation(self, monkeypatch):
        """A served schedule that differs from the request's own build
        is caught even when the processor count matches."""
        g, deadline = _instance(n=20, seed=1)
        d = task_deadlines(g, deadline)
        d2 = d * 2.0

        def corrupted(graph, n, deadlines, **kwargs):
            s = list_schedule(graph, n, deadlines, **kwargs)
            if deadlines is not d2:
                return s
            starts = s.start_times.copy()
            starts[-1] += 1.0
            return Schedule.from_arrays(graph, n, starts,
                                        s.finish_times.copy(),
                                        s.task_processors.copy())

        monkeypatch.setattr(plans_mod, "list_schedule", corrupted)
        plans = PlanCache()
        plans.schedule(g, 3, d)
        log = AuditLog(strict=True)
        with pytest.raises(AuditViolationError, match=r"^\[aliasing\]"):
            plans.schedule(g, 3, d2, log=log)
        assert "start_times" in log.violations[0].message


def _chunk_and_singles(strict=False):
    """One graph at four factors and an explicit deadline, as one chunk
    and as one-instance calls: summary JSON of both, and the builds."""
    g = stg_random_graph(60, 7).scaled(3.1e6)
    cpl = critical_path_length(g)
    instances = [(g, f * cpl) for f in (1.5, 2.0, 4.0, 8.0)]
    instances.append((g, 3.3 * cpl + 12345.0))
    chunk_obs, single_obs = ObsLog(), ObsLog()
    chunk = paper_suite_batch(instances, strict=strict, obs=chunk_obs)
    singles = [paper_suite(gi, di, strict=strict, obs=single_obs)
               for gi, di in instances]

    def dump(results):
        return json.dumps([summarize_results(r) for r in results],
                          sort_keys=True)

    return (dump(chunk), dump(singles),
            chunk_obs.counters["sched.schedules_built"],
            single_obs.counters["sched.schedules_built"])


class TestChunkSharesAcrossDeadlines:
    @pytest.mark.parametrize("strict", [False, True])
    def test_chunk_matches_one_instance_calls(self, strict):
        chunk, singles, chunk_builds, single_builds = \
            _chunk_and_singles(strict)
        assert chunk == singles
        assert chunk_builds < single_builds  # the deadlines shared

    def test_heapq_backend_gives_the_same_bytes(self):
        """The same chunk under ``REPRO_NO_CKERNEL=1``: the gate is read
        at import, so it runs in a fresh interpreter."""
        root = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ, REPRO_NO_CKERNEL="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), str(root),
                        env.get("PYTHONPATH")) if p)
        code = ("import json\n"
                "from repro.sched.ckernel import CKERNEL_ACTIVE\n"
                "from tests.core.test_plans import _chunk_and_singles\n"
                "assert not CKERNEL_ACTIVE\n"
                "print(json.dumps(_chunk_and_singles()))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             cwd=root, capture_output=True, text=True,
                             timeout=300, check=True)
        heapq_run = json.loads(out.stdout.strip().splitlines()[-1])
        assert heapq_run[0] == heapq_run[1]
        assert heapq_run[2] < heapq_run[3]
        assert heapq_run[0] == _chunk_and_singles()[0]


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
        want = [[schedule_energy(ps.schedule, p, window, sleep=ps.sleep)
                 for p in ps.points] for ps in planned]
        assert got == want

    def test_empty(self):
        assert sweep_energies([], 1.0) == []
