"""Parallel experiment execution: process-pool fan-out + result cache.

The experiment harness evaluates thousands of (graph, deadline)
instances whose cost is dominated by list scheduling.  This package
makes repeated campaigns cheap without touching the numerics:

- :mod:`repro.exec.cache` — a content-addressed on-disk cache keyed by
  a stable digest of the instance (graph structure + weights, deadline,
  platform parameters, priority policy, schema version).
- :mod:`repro.exec.pool` — :func:`run_instances`, a chunked
  ``ProcessPoolExecutor`` fan-out with per-instance timing, a progress
  callback and an in-process fallback for ``jobs=1``.
- :mod:`repro.exec.runner` — :func:`evaluate_suite_instances`, the
  cache-aware :func:`repro.core.suite.paper_suite_batch` fan-out the
  experiment modules call.

Parallelism and caching are *bit-for-bit invisible* in the results:
``tests/exec`` proves that serial, parallel and warm-cache campaigns
produce byte-identical JSON payloads.
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    EvictionSweep,
    ResultCache,
    instance_digest,
    restore_results,
    shard_lock,
    summarize_results,
)
from .pool import InstanceResult, run_instances
from .runner import ExecOptions, evaluate_suite_instances

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "EvictionSweep",
    "shard_lock",
    "ResultCache",
    "instance_digest",
    "summarize_results",
    "restore_results",
    "InstanceResult",
    "run_instances",
    "ExecOptions",
    "evaluate_suite_instances",
]
