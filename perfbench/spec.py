"""What the benchmark measures, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single source of the
workloads, metrics and bounds; this module only reads it.

Every workload reports every end-to-end metric; README.md says what
each one means on each workload.  The per-layer metrics come only from
the traced run (``--trace 1``); a layer a workload never reaches reads
0 there.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

_DOC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

RUN_SECONDS = _DOC["run_seconds"]
#: (name, unit, better, bound)
END_TO_END = [(m["name"], m["unit"], m["better"], m["bound"])
              for m in _DOC["end_to_end"]]
#: (name, unit, better)
PER_LAYER = [(m["name"], m["unit"], m["better"]) for m in _DOC["per_layer"]]


def layer_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, 0 where the workload had no value."""
    unknown = set(values) - {n for n, _, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"per-layer values not in the spec: {sorted(unknown)}")
    return {n: {"value": float(values.get(n, 0.0)), "unit": u}
            for n, u, _ in PER_LAYER}
