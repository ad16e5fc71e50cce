"""Wire protocol of the schedule service: JSON in, JSON out.

One request names one *instance* — exactly the tuple the exec cache is
keyed by: a task graph, a deadline, a priority policy (the platform is
server-wide).  Parsing therefore ends in
:func:`repro.exec.cache.instance_digest`, so the service's dedupe map,
its warm-hit lookups and the on-disk cache all agree on identity by
construction.

Request body (``POST /v1/schedule``)::

    {
      "graph": {"bundled": "fft"}                    // a bundled graph
             | {"name": "g1",                        // or an explicit one
                "weights": [3.1e6, 6.2e6, ...],      //   cycles, node i
                "edges": [[0, 1], [0, 2], ...]},     //   dense indices
      "deadline_cycles": 2.48e7,                     // absolute, or:
      "deadline_factor": 2.0,                        //   x critical path
      "policy": "edf",                               // optional
      "scale": 3.1e6                                 // bundled graphs only
    }

Success response::

    {"key": "<sha256>", "cached": true|false, "deduped": true|false,
     "request_id": "r00000042",       // server-minted correlation id
     "results": [<summary>, ...]}     // one per heuristic, paper order

The ``request_id`` is minted by the server per HTTP request and echoed
on every response (success or error); the same id appears as a span
attribute throughout the service's trace — on the ``serve.request``
span, the batch dispatch that served it, and the worker-side
``exec.chunk``/``exec.instance`` spans — so a Perfetto timeline
correlates wire traffic with pool work.

``results`` carries the exact :func:`repro.exec.cache.summarize_results`
payload — the same JSON the cache stores, so a served answer and a
campaign's cache entry are interchangeable.  Errors are
``{"error": <kind>, "detail": <message>}`` with an HTTP status: 400 for
a malformed request, 429 when admission control sheds, 422 when the
instance itself is infeasible, 500 for anything unexpected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.platform import Platform
from ..exec.cache import instance_digest
from ..graphs.analysis import critical_path_length
from ..graphs.dag import TaskGraph
from ..graphs.datasets import bundled_names, load_bundled
from ..sched.priorities import PRIORITY_POLICIES

__all__ = ["ProtocolError", "ScheduleRequest", "parse_request",
           "encode_ok", "encode_error", "MAX_BODY_BYTES", "MAX_TASKS"]

#: Largest accepted request body; a graph of MAX_TASKS nodes fits well
#: under this with room for edges.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Largest accepted explicit graph — an abuse guard, not a model limit.
MAX_TASKS = 20_000


class ProtocolError(ValueError):
    """A malformed or out-of-contract request (HTTP 400)."""


@dataclass(frozen=True)
class ScheduleRequest:
    """One parsed, cache-addressable schedule request.

    Attributes:
        graph: the (scenario-scaled) task graph.
        deadline_cycles: absolute deadline in cycles.
        policy: named list-scheduling priority policy.
        key: content-addressed cache key of the instance.
    """

    graph: TaskGraph
    deadline_cycles: float
    policy: str
    key: str


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise ProtocolError(detail)


def _is_int(x: Any) -> bool:
    """A JSON integer — ``true``/``false`` are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite(x: Any) -> bool:
    """A finite JSON number (``json`` also parses ``Infinity``/``NaN``).

    An integer literal too large for a float (``1e400`` written out in
    digits) is not finite here: every number becomes a float later.
    """
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _build_graph(spec: Any) -> TaskGraph:
    _require(isinstance(spec, dict), "'graph' must be an object")
    if "bundled" in spec:
        name = spec["bundled"]
        _require(isinstance(name, str), "'graph.bundled' must be a string")
        _require(name in bundled_names(),
                 f"unknown bundled graph {name!r}")
        graph = load_bundled(name)
        scale = spec.get("scale", 1.0)
        _require(_is_finite(scale) and scale > 0,
                 "'graph.scale' must be a positive finite number")
        return graph.scaled(float(scale)) if scale != 1.0 else graph
    _require("weights" in spec,
             "'graph' needs either 'bundled' or 'weights'")
    weights = spec["weights"]
    _require(isinstance(weights, list) and weights,
             "'graph.weights' must be a non-empty list")
    _require(len(weights) <= MAX_TASKS,
             f"graph exceeds the {MAX_TASKS}-task service limit")
    _require(all(_is_finite(w) and w >= 0 for w in weights),
             "'graph.weights' must be non-negative finite numbers")
    edges = spec.get("edges", [])
    _require(isinstance(edges, list), "'graph.edges' must be a list")
    n = len(weights)
    pairs = []
    for e in edges:
        _require(isinstance(e, (list, tuple)) and len(e) == 2,
                 "each edge must be a [u, v] pair")
        u, v = e
        _require(_is_int(u) and _is_int(v) and 0 <= u < n and 0 <= v < n,
                 f"edge {e!r} references an unknown node")
        pairs.append((u, v))
    name = spec.get("name", "request")
    _require(isinstance(name, str), "'graph.name' must be a string")
    try:
        return TaskGraph({i: float(w) for i, w in enumerate(weights)},
                         pairs, name=name)
    except ValueError as exc:  # cycles, all-zero weights, ...
        raise ProtocolError(f"invalid graph: {exc}") from None


def parse_request(body: bytes, platform: Platform) -> ScheduleRequest:
    """Parse and validate one request body into a keyed instance.

    Raises:
        ProtocolError: on any malformed field — the server answers 400
            with the error's message; nothing is computed or cached.
    """
    _require(len(body) <= MAX_BODY_BYTES, "request body too large")
    try:
        doc = json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    _require(isinstance(doc, dict), "request must be a JSON object")
    _require("graph" in doc, "missing 'graph'")
    graph = _build_graph(doc["graph"])

    deadline = doc.get("deadline_cycles")
    factor = doc.get("deadline_factor")
    _require((deadline is None) != (factor is None),
             "exactly one of 'deadline_cycles'/'deadline_factor' "
             "is required")
    if deadline is None:
        _require(_is_finite(factor) and factor > 0,
                 "'deadline_factor' must be a positive finite number")
        deadline = float(factor) * critical_path_length(graph)
        _require(math.isfinite(deadline),
                 "'deadline_factor' overflows the deadline")
    _require(_is_finite(deadline) and deadline > 0,
             "'deadline_cycles' must be a positive finite number")

    policy = doc.get("policy", "edf")
    _require(isinstance(policy, str) and policy in PRIORITY_POLICIES,
             f"unknown policy {policy!r}; "
             f"one of {sorted(PRIORITY_POLICIES)}")

    key = instance_digest(graph, float(deadline), platform, policy)
    return ScheduleRequest(graph=graph, deadline_cycles=float(deadline),
                           policy=policy, key=key)


def encode_ok(key: str, results: List[dict], *, cached: bool,
              deduped: bool = False,
              request_id: Optional[str] = None) -> Dict[str, Any]:
    """The success response document."""
    doc: Dict[str, Any] = {"key": key, "cached": cached,
                           "deduped": deduped, "results": results}
    if request_id is not None:
        doc["request_id"] = request_id
    return doc


def encode_error(kind: str, detail: str,
                 key: Optional[str] = None,
                 request_id: Optional[str] = None) -> Dict[str, Any]:
    """The error response document."""
    doc: Dict[str, Any] = {"error": kind, "detail": detail}
    if key is not None:
        doc["key"] = key
    if request_id is not None:
        doc["request_id"] = request_id
    return doc
