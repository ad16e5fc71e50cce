"""Tests for the TaskGraph DAG structure."""

import pytest

from repro.graphs.dag import CycleError, TaskGraph


class TestConstruction:
    def test_basic(self, diamond):
        assert diamond.n == 4
        assert diamond.m == 4
        assert diamond.name == "diamond"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one task"):
            TaskGraph({}, [])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TaskGraph({"a": -1.0}, [])

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TaskGraph({"a": float("nan")}, [])

    def test_zero_weight_allowed(self):
        g = TaskGraph({"a": 0.0, "b": 1.0}, [("a", "b")])
        assert g.weight("a") == 0.0

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(KeyError):
            TaskGraph({"a": 1.0}, [("a", "zzz")])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError, match="self-loop"):
            TaskGraph({"a": 1.0}, [("a", "a")])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError, match="cycle"):
            TaskGraph({"a": 1.0, "b": 1.0}, [("a", "b"), ("b", "a")])

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleError):
            TaskGraph({i: 1.0 for i in range(3)},
                      [(0, 1), (1, 2), (2, 0)])

    def test_duplicate_edges_collapsed(self):
        g = TaskGraph({"a": 1.0, "b": 1.0},
                      [("a", "b"), ("a", "b"), ("a", "b")])
        assert g.m == 1

    def test_int_node_ids(self):
        g = TaskGraph({1: 2.0, 2: 3.0}, [(1, 2)])
        assert g.weight(1) == 2.0

    def test_single_node_no_edges(self):
        g = TaskGraph({"solo": 5.0})
        assert g.n == 1 and g.m == 0
        assert g.sources() == g.sinks() == ("solo",)


class TestQueries:
    def test_weight(self, diamond):
        assert diamond.weight("c") == 3.0

    def test_successors(self, diamond):
        assert set(diamond.successors("a")) == {"b", "c"}
        assert diamond.successors("d") == ()

    def test_predecessors(self, diamond):
        assert set(diamond.predecessors("d")) == {"b", "c"}
        assert diamond.predecessors("a") == ()

    def test_contains(self, diamond):
        assert "a" in diamond
        assert "zzz" not in diamond

    def test_len(self, diamond):
        assert len(diamond) == 4

    def test_edges_iteration(self, diamond):
        edges = set(diamond.edges())
        assert edges == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}

    def test_sources_and_sinks(self, diamond):
        assert diamond.sources() == ("a",)
        assert diamond.sinks() == ("d",)

    def test_index_roundtrip(self, diamond):
        for v in diamond.node_ids:
            assert diamond.id_of(diamond.index_of(v)) == v

    def test_weights_array_matches(self, diamond):
        w = diamond.weights_array
        for v in diamond.node_ids:
            assert w[diamond.index_of(v)] == diamond.weight(v)

    def test_succ_csr_matches_succ_indices(self):
        from repro.graphs.generators import stg_random_graph

        g = stg_random_graph(40, 9)
        flat, offsets = g.succ_csr
        assert offsets[0] == 0 and offsets[-1] == flat.size
        for v in range(g.n):
            assert tuple(flat[offsets[v]:offsets[v + 1]]) == \
                g.succ_indices[v]
        with pytest.raises(ValueError):
            flat[...] = 0

    def test_weights_array_readonly(self, diamond):
        with pytest.raises(ValueError):
            diamond.weights_array[0] = 99.0


class TestTopologicalOrder:
    def test_respects_edges(self, diamond):
        order = diamond.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for u, v in diamond.edges():
            assert pos[u] < pos[v]

    def test_covers_all_nodes(self, diamond):
        assert set(diamond.topological_order()) == set(diamond.node_ids)

    def test_deterministic(self, diamond):
        g2 = TaskGraph({v: diamond.weight(v) for v in diamond.node_ids},
                       diamond.edges())
        assert diamond.topological_order() == g2.topological_order()

    def test_topo_indices_consistent(self, diamond):
        ids = tuple(diamond.id_of(i) for i in diamond.topo_indices)
        assert ids == diamond.topological_order()


class TestTransformations:
    def test_scaled_multiplies_weights(self, diamond):
        g2 = diamond.scaled(10.0)
        assert g2.weight("c") == 30.0
        assert diamond.weight("c") == 3.0  # original untouched

    def test_scaled_preserves_structure(self, diamond):
        g2 = diamond.scaled(2.0)
        assert set(g2.edges()) == set(diamond.edges())
        assert g2.name == diamond.name

    def test_scaled_rename(self, diamond):
        assert diamond.scaled(2.0, name="x2").name == "x2"

    def test_scaled_zero_rejected(self, diamond):
        with pytest.raises(ValueError, match="positive"):
            diamond.scaled(0.0)

    def test_relabeled(self, diamond):
        mapping = {v: v.upper() for v in diamond.node_ids}
        g2 = diamond.relabeled(mapping)
        assert g2.weight("C") == 3.0
        assert ("A", "B") in set(g2.edges())

    def test_relabeled_missing_key_raises(self, diamond):
        with pytest.raises(KeyError):
            diamond.relabeled({"a": "A"})


class TestNetworkxInterop:
    def test_roundtrip(self, diamond):
        g2 = TaskGraph.from_networkx(diamond.to_networkx())
        assert set(g2.node_ids) == set(diamond.node_ids)
        assert set(g2.edges()) == set(diamond.edges())
        assert g2.weight("c") == diamond.weight("c")

    def test_default_weight_is_one(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edge("x", "y")
        tg = TaskGraph.from_networkx(g)
        assert tg.weight("x") == 1.0

    def test_cycle_via_networkx_rejected(self):
        import networkx as nx

        g = nx.DiGraph([("x", "y"), ("y", "x")])
        with pytest.raises(CycleError):
            TaskGraph.from_networkx(g)

    def test_to_networkx_weights(self, diamond):
        nxg = diamond.to_networkx()
        assert nxg.nodes["b"]["weight"] == 2.0
