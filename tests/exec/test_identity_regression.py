"""End-to-end byte-identity pins across every execution configuration.

The acceptance bar for the batched and compiled-kernel work is that
*no* execution knob may change a single byte of what a campaign
produces: the report JSON and the cache files must be SHA-256-identical
across serial, parallel, C-kernel and ``heapq``-loop runs — and
identical to what pre-batching revisions produced.  The golden digests
below pin exactly that.

If one of these tests fails after an *intentional* energy-model or
search change, recompute the digests from the serial path
(``ExecOptions(jobs=1, use_cache=False)``) and bump
:data:`repro.exec.cache.CACHE_SCHEMA_VERSION`; if it fails after a
performance or transport change, the change broke bit-exactness.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.exec import ExecOptions
from repro.exec.cache import CACHE_SCHEMA_VERSION
from repro.experiments import fig10_11_relative_energy
from repro.experiments.registry import COARSE

#: SHA-256 of the campaign report JSON, recorded from the per-instance
#: serial path before the batched kernel existed.
GOLDEN_REPORT = \
    "870949ecb2c49d2d40b8a9bdb4ae6b7759a7c5a0f92fa3b32cc4cf377b4bcf95"
#: SHA-256 over the sorted cache entries (name + bytes) of the same
#: campaign, same provenance.
GOLDEN_CACHE = \
    "89c08666a87a922d2fd5113d6624d8f9b13045bed524cfae004c98a2095af6af"

_CAMPAIGN_KWARGS = dict(
    scenario=COARSE, graphs_per_group=2, sizes=(50,),
    deadline_factors=(1.5, 2.0), include_applications=False)


def _report_sha(options):
    report = fig10_11_relative_energy.run(exec_options=options,
                                          **_CAMPAIGN_KWARGS)
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def _cache_sha(cache_dir):
    h = hashlib.sha256()
    for f in sorted(pathlib.Path(cache_dir).rglob("*.json")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


class TestReportIdentity:
    @pytest.mark.parametrize("label,kwargs", [
        ("batched serial", dict(jobs=1)),
        ("batched parallel pickle", dict(jobs=2)),
    ])
    def test_report_matches_golden(self, label, kwargs):
        sha = _report_sha(ExecOptions(use_cache=False, **kwargs))
        assert sha == GOLDEN_REPORT, f"{label} diverged from the pin"

    def test_report_identical_on_heapq_path(self):
        """The C-kernel gate may not leak into results.

        Runs the campaign in a subprocess with ``REPRO_NO_CKERNEL=1`` —
        the gate is read at import time, so an env toggle needs a fresh
        interpreter — which pins the ``heapq`` reference loop's report
        to the same golden digest as the default (C kernel) path.
        """
        code = (
            "import hashlib\n"
            "from repro.exec import ExecOptions\n"
            "from repro.experiments import fig10_11_relative_energy\n"
            "from repro.experiments.registry import COARSE\n"
            "from repro.sched.ckernel import CKERNEL_ACTIVE\n"
            "assert not CKERNEL_ACTIVE\n"
            "report = fig10_11_relative_energy.run(\n"
            "    scenario=COARSE, graphs_per_group=2, sizes=(50,),\n"
            "    deadline_factors=(1.5, 2.0), include_applications=False,\n"
            "    exec_options=ExecOptions(jobs=1, use_cache=False))\n"
            "print(hashlib.sha256(report.to_json().encode()).hexdigest())\n"
        )
        env = dict(os.environ, REPRO_NO_CKERNEL="1")
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == GOLDEN_REPORT


class TestCacheIdentity:
    def test_schema_version_unchanged(self):
        """Batching is transport/evaluation only — same payload schema."""
        assert CACHE_SCHEMA_VERSION == 2

    @pytest.mark.parametrize("label,kwargs", [
        ("batched serial", dict(jobs=1)),
        ("batched parallel", dict(jobs=2)),
    ])
    def test_cache_files_match_golden(self, tmp_path, label, kwargs):
        opts = ExecOptions(cache_dir=tmp_path / "c", **kwargs)
        fig10_11_relative_energy.run(exec_options=opts, **_CAMPAIGN_KWARGS)
        assert _cache_sha(tmp_path / "c") == GOLDEN_CACHE, \
            f"{label} wrote different cache bytes"
        entries = sorted((tmp_path / "c").rglob("*.json"))
        assert entries, "the campaign should have populated the cache"
        for f in entries:
            assert json.loads(f.read_text())["schema"] == \
                CACHE_SCHEMA_VERSION


class TestFailureAttribution:
    def test_batched_failure_names_the_instance(self):
        """An infeasible instance inside a chunk must surface with the
        same exception, attributed to its own index — not the chunk's."""
        from repro.sched.deadlines import InfeasibleDeadlineError
        from repro.exec.runner import evaluate_suite_instances
        from repro.graphs.generators import stg_random_graph
        from repro.graphs.analysis import critical_path_length

        instances = []
        for seed in range(4):
            g = stg_random_graph(15, seed).scaled(3.1e6)
            instances.append((g, 2.0 * critical_path_length(g)))
        bad = stg_random_graph(15, 99).scaled(3.1e6)
        # Deadline below the critical path: infeasible at any speed.
        instances.insert(2, (bad, 0.5 * critical_path_length(bad)))

        def fail(**kwargs):
            with pytest.raises(InfeasibleDeadlineError) as excinfo:
                evaluate_suite_instances(
                    instances, options=ExecOptions(**kwargs))
            return excinfo.value

        serial = fail(jobs=1, batch_chunk=1)
        batched = fail(jobs=1, batch_chunk=2)
        parallel = fail(jobs=2, batch_chunk=2)
        assert str(serial) == str(batched) == str(parallel)
        assert batched.instance_index == 2
        assert parallel.instance_index == 2


class TestBatchedSuiteEquivalence:
    def test_paper_suite_batch_matches_serial_loop(self):
        """Direct API-level pin: chunk evaluation == instance loop."""
        from repro.core.suite import paper_suite, paper_suite_batch
        from repro.graphs.generators import stg_random_graph
        from repro.graphs.analysis import critical_path_length

        instances = []
        for seed, n, factor in [(0, 20, 1.6), (1, 35, 2.2), (2, 12, 1.2),
                                (3, 27, 3.0)]:
            g = stg_random_graph(n, seed).scaled(3.1e6)
            instances.append((g, factor * critical_path_length(g)))
        batched = paper_suite_batch(instances)
        for (g, d), got in zip(instances, batched):
            want = paper_suite(g, d)
            assert list(got) == list(want)
            for h in want:
                assert got[h].energy == want[h].energy
                assert got[h].point == want[h].point
                assert got[h].n_processors == want[h].n_processors
                assert got[h].meets_deadline == want[h].meets_deadline
