"""Plain, strict and profiled campaigns run one evaluation path.

``--strict`` and ``--profile`` must check and time the code that plain
campaigns and the service run: the chunked
:func:`~repro.core.suite.paper_suite_batch` broadcast.  These tests spy
on that path, break one of its rows on purpose, and pin per-instance
failure attribution through its finish step.
"""

import collections
import dataclasses
import math
import sys

import pytest

import repro.core.batch
import repro.core.energy
import repro.core.suite
from repro.audit.report import AuditViolationError
from repro.core.platform import default_platform
from repro.exec import ExecOptions
from repro.exec.runner import evaluate_suite_instances
from repro.graphs.analysis import critical_path_length
from repro.graphs.generators import stg_random_graph

#: The instance the tests single out, inside the second of three
#: two-instance chunks.
TARGET = 3


def _instances(k=5):
    out = []
    for seed in range(k):
        g = stg_random_graph(15, seed).scaled(3.1e6)
        out.append((g, (2.0 + 0.125 * seed) * critical_path_length(g)))
    # The tests single an instance out by its deadline.
    assert len({d for _, d in out}) == k
    return out


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind every ``repro`` module attribute that is ``original``."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, replacement)


def _spy(monkeypatch, original, counts, name):
    def spy(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, original, spy)


class TestOnePath:
    @pytest.mark.parametrize("mode", [{}, {"strict": True},
                                      {"profile": True}])
    def test_modes_call_the_batched_suite(self, monkeypatch, mode):
        counts = collections.Counter()
        _spy(monkeypatch, repro.core.suite.paper_suite_batch, counts,
             "paper_suite_batch")
        _spy(monkeypatch, repro.core.batch.batch_energy_sweep, counts,
             "batch_energy_sweep")
        _spy(monkeypatch, repro.core.energy.schedule_energy_sweep, counts,
             "schedule_energy_sweep")
        evaluate_suite_instances(
            _instances(), options=ExecOptions(jobs=1, use_cache=False,
                                              batch_chunk=2, **mode))
        # Three chunks, one suite call and one broadcast each — the
        # same numbers in every mode, and no per-sweep evaluator.
        assert counts == {"paper_suite_batch": 3, "batch_energy_sweep": 3}


class TestStrictRowCheck:
    @pytest.fixture
    def perturbed(self, monkeypatch):
        """Shift one broadcast row of instance TARGET by one ulp."""
        instances = _instances()
        window = default_platform().seconds(instances[TARGET][1])
        original = repro.core.batch.batch_energy_sweep

        def perturb(batch, requests):
            out = original(batch, requests)
            for ri, r in enumerate(requests):
                if r.deadline_seconds == window and out[ri]:
                    # Native rows are read-only sequences: swap in a list.
                    row = list(out[ri])
                    row[0] = dataclasses.replace(
                        row[0], busy=math.nextafter(row[0].busy, math.inf))
                    out[ri] = row
                    break
            return out

        _patch_everywhere(monkeypatch, original, perturb)
        return instances

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_names_the_instance(self, perturbed, jobs):
        with pytest.raises(AuditViolationError, match="bitwise") as excinfo:
            evaluate_suite_instances(
                perturbed, options=ExecOptions(jobs=jobs, use_cache=False,
                                               batch_chunk=2, strict=True))
        assert excinfo.value.instance_index == TARGET

    def test_plain_campaign_does_not_check(self, perturbed):
        results = evaluate_suite_instances(
            perturbed, options=ExecOptions(jobs=1, use_cache=False,
                                           batch_chunk=2))
        assert len(results) == len(perturbed)


class TestFinishAttribution:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_finish_failure_names_the_instance(self, monkeypatch, jobs):
        """A failure in the finish step is the instance's, not the
        chunk's.  Workers get pickled copies of the instances, so the
        failing one is matched by its deadline."""
        instances = _instances()
        target = instances[TARGET][1]
        real = repro.core.suite.limit_sf

        def limit_sf(graph, deadline_cycles, **kwargs):
            if deadline_cycles == target:
                raise RuntimeError("limit failed")
            return real(graph, deadline_cycles, **kwargs)

        monkeypatch.setattr(repro.core.suite, "limit_sf", limit_sf)
        with pytest.raises(RuntimeError, match="limit failed") as excinfo:
            evaluate_suite_instances(
                instances, options=ExecOptions(jobs=jobs, use_cache=False,
                                               batch_chunk=2))
        assert excinfo.value.instance_index == TARGET
