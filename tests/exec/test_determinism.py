"""Determinism test: parallelism and caching are invisible in results.

Runs a small fig10-style campaign three ways — serial with the cache
off, 4-way parallel with the cache off, and 4-way parallel against a
warm cache — and asserts the three result payloads are *equal after a
JSON round-trip* and in fact byte-identical, the acceptance bar for
the ``repro.exec`` runner.
"""

import json

import pytest

from repro.exec import ExecOptions
from repro.experiments import fig10_11_relative_energy
from repro.experiments.registry import COARSE


def _campaign(exec_options=None):
    return fig10_11_relative_energy.run(
        scenario=COARSE, graphs_per_group=2, sizes=(50,),
        deadline_factors=(1.5, 2.0), include_applications=False,
        exec_options=exec_options)


@pytest.fixture(scope="module")
def serial_report():
    return _campaign(ExecOptions(jobs=1, use_cache=False))


def test_parallel_equals_serial(serial_report):
    parallel = _campaign(ExecOptions(jobs=4, use_cache=False))
    assert json.loads(parallel.to_json()) == \
        json.loads(serial_report.to_json())
    assert parallel.to_json() == serial_report.to_json()


def test_warm_cache_equals_serial(serial_report, tmp_path):
    cache_dir = tmp_path / "cache"
    cold = _campaign(ExecOptions(jobs=4, cache_dir=cache_dir))
    warm_options = ExecOptions(jobs=4, cache_dir=cache_dir)
    warm = _campaign(warm_options)

    for report in (cold, warm):
        assert json.loads(report.to_json()) == \
            json.loads(serial_report.to_json())
        assert report.to_json() == serial_report.to_json()

    stats = warm_options.open_cache().stats
    assert stats.misses == 0 and stats.hits == stats.lookups > 0
    assert stats.hit_rate > 0.9  # the acceptance criterion's bar


def test_vectorized_sweep_is_invisible(serial_report, monkeypatch):
    """The batched ladder sweep must not perturb campaign bytes.

    Reruns the campaign with the suite's ``sweep_energies`` replaced by
    a per-point scalar ``schedule_energy`` loop (the reference
    evaluator) and asserts the report is byte-identical to the normal
    run, which evaluates every chunk in one ``batch_energy_sweep``.
    """
    import repro.core.suite
    from repro.core.energy import schedule_energy

    calls = []

    def scalar_sweeps(sweeps, deadline_seconds):
        calls.append(len(sweeps))
        windows = (list(deadline_seconds)
                   if isinstance(deadline_seconds, (list, tuple))
                   else [deadline_seconds] * len(sweeps))
        return [[schedule_energy(ps.schedule, p, window, sleep=ps.sleep)
                 for p in ps.points]
                for ps, window in zip(sweeps, windows)]

    monkeypatch.setattr(repro.core.suite, "sweep_energies", scalar_sweeps)
    scalar = _campaign(ExecOptions(jobs=1, use_cache=False))
    assert sum(calls) > 0  # the patch evaluated sweeps
    assert scalar.to_json() == serial_report.to_json()


def test_no_cache_flag_bypasses_store(tmp_path):
    options = ExecOptions(jobs=1, cache_dir=tmp_path / "c", use_cache=False)
    _campaign(options)
    assert options.open_cache() is None
    assert not (tmp_path / "c").exists()
