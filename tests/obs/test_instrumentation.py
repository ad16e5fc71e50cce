"""The instrumented hot paths actually record into an ObsLog."""

import os

import pytest

from repro.core.lamps import lamps_search
from repro.core.sns import schedule_and_stretch
from repro.core.suite import paper_suite
from repro.exec.cache import ResultCache
from repro.exec.pool import run_instances
from repro.exec.runner import ExecOptions, evaluate_suite_instances
from repro.graphs.analysis import critical_path_length
from repro.graphs.generators import stg_random_graph
from repro.obs import ObsLog
from repro.sched.deadlines import task_deadlines
from repro.sched.list_scheduler import list_schedule


@pytest.fixture
def instance():
    g = stg_random_graph(30, 0).scaled(3.1e6)
    return g, 2.0 * critical_path_length(g)


class TestSchedulerInstrumentation:
    def test_list_schedule_records_span_and_counters(self, instance):
        g, deadline = instance
        log = ObsLog()
        list_schedule(g, 4, task_deadlines(g, deadline), obs=log)
        assert [s.name for s in log.spans] == ["sched.list_schedule"]
        assert log.spans[0].args == {"tasks": g.n, "procs": 4}
        assert log.counters["sched.schedules_built"] == 1
        assert log.counters["sched.tasks_dispatched"] == g.n


class TestSearchInstrumentation:
    def test_lamps_phases_and_counters(self, instance):
        g, deadline = instance
        log = ObsLog()
        lamps_search(g, deadline, obs=log)
        names = {s.name for s in log.spans}
        assert {"lamps.phase1", "lamps.phase2",
                "sched.list_schedule"} <= names
        assert log.counters["lamps.binary_search_iterations"] >= 1
        assert log.counters["core.operating_points_evaluated"] >= 1

    def test_sns_stretch_span(self, instance):
        g, deadline = instance
        log = ObsLog()
        schedule_and_stretch(g, deadline, obs=log)
        assert "sns.stretch" in {s.name for s in log.spans}

    def test_paper_suite_phase_spans(self, instance):
        g, deadline = instance
        log = ObsLog()
        paper_suite(g, deadline, obs=log)
        names = {s.name for s in log.spans}
        assert {"suite.batch", "suite.plan", "suite.sns_family",
                "suite.lamps_phase1", "suite.lamps_phase2",
                "suite.sweep", "suite.finish", "suite.limits",
                "sched.list_schedule"} <= names
        # All phase spans nest under the chunk span.
        top = [s for s in log.spans if s.depth == 0]
        assert [s.name for s in top] == ["suite.batch"]

    def test_suite_counters_match_audit(self, instance):
        from repro.audit.report import AuditLog

        g, deadline = instance
        log, audit = ObsLog(), AuditLog(strict=True)
        paper_suite(g, deadline, obs=log, audit=audit)
        assert log.counters["sched.schedules_built"] == \
            audit.schedules_built
        assert log.counters["core.operating_points_evaluated"] == \
            audit.operating_points_evaluated


class TestCacheInstrumentation:
    def test_hit_miss_counters_and_latency(self, tmp_path):
        log = ObsLog()
        cache = ResultCache(tmp_path, obs=log)
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, [{"heuristic": "sns"}])
        assert cache.get(key) == [{"heuristic": "sns"}]
        assert log.counters == {"cache.misses": 1, "cache.hits": 1,
                                "cache.writes": 1}
        assert log.histograms["cache.get"].count == 2
        assert log.histograms["cache.put"].count == 1

    def test_obs_never_changes_payload(self, tmp_path):
        key = "cd" + "0" * 62
        plain = ResultCache(tmp_path / "a")
        observed = ResultCache(tmp_path / "b", obs=ObsLog())
        payload = [{"x": 1.5}]
        plain.put(key, payload)
        observed.put(key, payload)
        assert plain.path_for(key).read_bytes() == \
            observed.path_for(key).read_bytes()


# Pool workers must be module-level (picklable).
def _double(x):
    return 2 * x


class TestPoolInstrumentation:
    def test_serial_spans(self):
        log = ObsLog()
        run_instances(_double, [1, 2, 3], jobs=1, obs=log)
        names = [s.name for s in log.spans]
        assert names.count("exec.instance") == 3
        assert names.count("exec.run_instances") == 1
        assert log.counters["exec.instances_run"] == 3

    def test_parallel_merges_worker_pids(self):
        log = ObsLog()
        results = run_instances(_double, list(range(8)), jobs=2,
                                chunksize=2, obs=log)
        assert [r.value for r in results] == [2 * x for x in range(8)]
        pids = {s.pid for s in log.spans}
        # At least the coordinator plus one distinct worker pid.
        assert os.getpid() in pids
        assert len(pids) >= 2
        worker_spans = {s.name for s in log.spans
                        if s.pid != os.getpid()}
        assert {"exec.chunk", "exec.instance"} <= worker_spans
        assert log.counters["exec.instances_run"] == 8
        assert log.counters["exec.chunks_run"] == 4

    def test_no_obs_payload_without_profiling(self):
        results = run_instances(_double, [1, 2, 3, 4], jobs=2,
                                chunksize=2)
        assert all(r.obs is None for r in results)


class TestRunnerInstrumentation:
    def test_campaign_obs_and_timing_summary(self, instance):
        options = ExecOptions(jobs=1, profile=True)
        evaluate_suite_instances([instance], options=options)
        log = options.open_obs()
        names = {s.name for s in log.spans}
        assert {"exec.cache_lookup", "exec.run_instances",
                "suite.batch", "suite.plan"} <= names
        timing = options.timing_summary()
        assert timing is not None and "1 fresh" in timing

    def test_parallel_campaign_single_merged_log(self, instance):
        g, deadline = instance
        instances = [(g, f * deadline) for f in (1.0, 1.1, 1.2, 1.3)]
        options = ExecOptions(jobs=2, profile=True)
        evaluate_suite_instances(instances, options=options)
        log = options.open_obs()
        pids = {s.pid for s in log.spans}
        assert len(pids) >= 2  # coordinator + worker lanes in one log

    def test_timing_summary_none_when_idle(self):
        assert ExecOptions().timing_summary() is None
