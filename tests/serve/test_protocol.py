"""Unit tests for the schedule service's wire protocol."""

import json

import pytest

from repro.exec.cache import instance_digest
from repro.graphs.analysis import critical_path_length
from repro.graphs.datasets import bundled_names, load_bundled
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    encode_error,
    encode_ok,
    parse_request,
)


def _body(**doc):
    return json.dumps(doc).encode()


EXPLICIT = {"name": "g1", "weights": [3.1e6, 6.2e6, 4.0e6],
            "edges": [[0, 1], [0, 2]]}


class TestParseOk:
    def test_bundled_graph_and_factor(self, platform):
        req = parse_request(_body(graph={"bundled": "robot"},
                                  deadline_factor=2.0, policy="edf"),
                            platform)
        g = load_bundled("robot")
        assert req.graph.name == "robot"
        assert req.deadline_cycles == \
            pytest.approx(2.0 * critical_path_length(g))
        assert req.policy == "edf"

    def test_key_is_the_cache_digest(self, platform):
        """The wire protocol and the store share one identity notion."""
        req = parse_request(_body(graph=EXPLICIT, deadline_cycles=2.0e7),
                            platform)
        assert req.key == instance_digest(
            req.graph, req.deadline_cycles, platform, "edf")

    def test_explicit_graph_round_trips(self, platform):
        req = parse_request(_body(graph=EXPLICIT, deadline_cycles=2.0e7,
                                  policy="hlfet"), platform)
        assert req.graph.n == 3
        assert req.graph.name == "g1"
        assert req.policy == "hlfet"

    def test_scale_applies_to_bundled(self, platform):
        plain = parse_request(_body(graph={"bundled": "robot"},
                                    deadline_factor=2.0), platform)
        scaled = parse_request(_body(graph={"bundled": "robot",
                                            "scale": 3.0},
                                     deadline_factor=2.0), platform)
        assert scaled.deadline_cycles == \
            pytest.approx(3.0 * plain.deadline_cycles)
        assert scaled.key != plain.key

    def test_same_instance_same_key(self, platform):
        a = parse_request(_body(graph=EXPLICIT, deadline_cycles=2.0e7),
                          platform)
        b = parse_request(_body(graph=EXPLICIT, deadline_cycles=2.0e7),
                          platform)
        assert a.key == b.key


class TestParseErrors:
    @pytest.mark.parametrize("body", [
        b"", b"not json", b"[1, 2]", b'"scalar"',
        _body(deadline_cycles=1.0),                     # no graph
        _body(graph={}, deadline_cycles=1.0),           # empty graph spec
        _body(graph={"bundled": "no-such"}, deadline_cycles=1.0),
        _body(graph={"bundled": "robot", "scale": -1.0},
              deadline_cycles=1.0),
        _body(graph=EXPLICIT),                          # no deadline
        _body(graph=EXPLICIT, deadline_cycles=1.0, deadline_factor=2.0),
        _body(graph=EXPLICIT, deadline_cycles=-5.0),
        _body(graph=EXPLICIT, deadline_factor=0),
        _body(graph=EXPLICIT, deadline_cycles=1.0, policy="no-such"),
        _body(graph={"weights": []}, deadline_cycles=1.0),
        _body(graph={"weights": [1.0], "edges": [[0]]},
              deadline_cycles=1.0),
        _body(graph={"weights": [1.0], "edges": [[0, 7]]},
              deadline_cycles=1.0),
        _body(graph={"weights": [1.0, 1.0], "edges": [[0, 1], [1, 0]]},
              deadline_cycles=1.0),                     # cycle
    ])
    def test_malformed_requests_raise(self, body, platform):
        with pytest.raises(ProtocolError):
            parse_request(body, platform)

    @pytest.mark.parametrize("body,field", [
        # json.loads accepts Infinity/NaN; none of them may get through.
        (b'{"graph": {"bundled": "robot"}, "deadline_cycles": Infinity}',
         "deadline_cycles"),
        (b'{"graph": {"bundled": "robot"}, "deadline_cycles": NaN}',
         "deadline_cycles"),
        (b'{"graph": {"bundled": "robot"}, "deadline_factor": Infinity}',
         "deadline_factor"),
        (_body(graph={"bundled": "robot"}, deadline_factor=1e308),
         "deadline_factor"),                          # overflows x CPL
        (b'{"graph": {"bundled": "robot", "scale": Infinity},'
         b' "deadline_factor": 2.0}', "graph.scale"),
        (b'{"graph": {"weights": [1.0, Infinity]},'
         b' "deadline_cycles": 5.0}', "graph.weights"),
        # JSON booleans are ints to isinstance, not numbers here.
        (_body(graph={"weights": [1.0, 1.0], "edges": [[True, False]]},
               deadline_cycles=5.0), "edge"),
        (_body(graph={"weights": [1.0, True]}, deadline_cycles=5.0),
         "graph.weights"),
        (_body(graph=EXPLICIT, deadline_factor=True), "deadline_factor"),
        (_body(graph=EXPLICIT, deadline_cycles=True), "deadline_cycles"),
        (_body(graph={"bundled": "robot", "scale": True},
               deadline_factor=2.0), "graph.scale"),
    ])
    def test_non_finite_and_boolean_numbers_rejected(self, body, field,
                                                     platform):
        with pytest.raises(ProtocolError, match=field):
            parse_request(body, platform)

    #: An integer literal too large for a float: ``math.isfinite``
    #: raises ``OverflowError`` on it rather than answering.
    HUGE = b"1" + b"0" * 400

    @pytest.mark.parametrize("body,field", [
        (b'{"graph": {"weights": [1.0, ' + HUGE + b']},'
         b' "deadline_cycles": 5.0}', "graph.weights"),
        (b'{"graph": {"bundled": "robot"}, "deadline_cycles": '
         + HUGE + b"}", "deadline_cycles"),
        (b'{"graph": {"bundled": "robot"}, "deadline_factor": '
         + HUGE + b"}", "deadline_factor"),
        (b'{"graph": {"bundled": "robot", "scale": ' + HUGE + b"},"
         b' "deadline_factor": 2.0}', "graph.scale"),
    ], ids=["graph.weights", "deadline_cycles", "deadline_factor",
            "graph.scale"])
    def test_integers_beyond_float_range_rejected(self, body, field,
                                                  platform):
        with pytest.raises(ProtocolError,
                           match=f"'{field}' must be .*finite"):
            parse_request(body, platform)

    def test_oversize_body_refused(self, platform):
        with pytest.raises(ProtocolError, match="too large"):
            parse_request(b" " * (MAX_BODY_BYTES + 1), platform)

    def test_error_message_names_the_policies(self, platform):
        with pytest.raises(ProtocolError, match="edf"):
            parse_request(_body(graph=EXPLICIT, deadline_cycles=1.0,
                                policy="zzz"), platform)


class TestEncode:
    def test_ok_document(self):
        doc = encode_ok("k" * 64, [{"heuristic": "sns"}], cached=True)
        assert doc == {"key": "k" * 64, "cached": True, "deduped": False,
                       "results": [{"heuristic": "sns"}]}

    def test_error_document(self):
        assert encode_error("bad_request", "nope") == \
            {"error": "bad_request", "detail": "nope"}
        assert encode_error("infeasible", "nope", key="abc")["key"] == \
            "abc"

    def test_documents_are_json_clean(self):
        json.dumps(encode_ok("k", [], cached=False, deduped=True))
        json.dumps(encode_error("internal", "boom"))


def test_bundled_names_nonempty():
    assert "robot" in bundled_names()
