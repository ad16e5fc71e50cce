"""Output checks that run outside the timed window.

Every timed pass is compared with a result digest (see
:func:`common.results_digest`).  On top of that a seeded sample of the
instances is recomputed through ``paper_suite(..., strict=True)``, the
audited reference path: schedules valid, deadlines met, energy
recomputed independently.  The sample's summaries must equal the
measured path's bit for bit, and every instance must keep the paper's
orderings: a PS variant never costs more than its plain twin, and
LAMPS never more than S&S.
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence, Tuple

#: Relative slack of the ordering checks (summaries are rounded sums).
_REL = 1e-9


def _energy(summary: dict) -> float:
    e = summary["energy"]
    return e["busy"] + e["idle"] + e["sleep"] + e["overhead"]


def ordering_failures(payload: List[dict]) -> List[str]:
    """Paper orderings violated by one instance's summaries."""
    by = {s["heuristic"]: s for s in payload}
    out = []
    for s in payload:
        # The two LIMIT rows are lower bounds, not schedules.
        if s["heuristic"].startswith("LIMIT"):
            continue
        if s["point"] is None or not s["meets_deadline"]:
            out.append(f"{s['heuristic']} misses its deadline")
    pairs = (("S&S+PS", "S&S"), ("LAMPS+PS", "LAMPS"), ("LAMPS", "S&S"),
             ("LAMPS+PS", "S&S+PS"))
    for lo, hi in pairs:
        a, b = by.get(lo), by.get(hi)
        if a is None or b is None or a["point"] is None \
                or b["point"] is None:
            continue
        if _energy(a) > _energy(b) * (1 + _REL):
            out.append(f"{lo} energy {_energy(a):.6g} > {hi} "
                       f"{_energy(b):.6g}")
    return out


def strict_sample(instances: Sequence[Tuple[Any, float]],
                  payloads: Sequence[List[dict]], seed: int, k: int
                  ) -> List[str]:
    """Recompute ``k`` seeded instances strictly; return the failures.

    ``payloads[i]`` is the measured path's ``summarize_results`` payload
    of ``instances[i]``.
    """
    from repro.core.suite import paper_suite
    from repro.exec.cache import summarize_results

    failures = []
    for i, payload in enumerate(payloads):
        for problem in ordering_failures(payload):
            failures.append(f"instance {i}: {problem}")
    rng = random.Random(f"strict-{seed}")
    for i in sorted(rng.sample(range(len(instances)), k)):
        graph, deadline = instances[i]
        try:
            ref = summarize_results(paper_suite(graph, deadline,
                                                strict=True))
        except Exception as exc:  # an audit violation names itself
            failures.append(f"instance {i}: strict run raised "
                            f"{type(exc).__name__}: {exc}")
            continue
        if ref != payloads[i]:
            failures.append(f"instance {i}: measured summaries differ "
                            f"from the strict reference")
    return failures
