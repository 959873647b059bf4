"""Tests for repro.causal.dag."""

import pytest

from repro.causal.dag import CausalDAG
from repro.exceptions import GraphError


def diamond():
    """a -> b -> d, a -> c -> d."""
    return CausalDAG(edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


class TestConstruction:
    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            CausalDAG(edges=[("a", "b"), ("b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            CausalDAG(edges=[("a", "a")])

    def test_isolated_nodes_kept(self):
        g = CausalDAG(nodes=["x", "y"], edges=[])
        assert g.n_nodes == 2
        assert g.n_edges == 0

    def test_add_edge_returns_new_graph(self):
        g = diamond()
        g2 = g.add_edge("b", "c")
        assert g2.has_edge("b", "c")
        assert not g.has_edge("b", "c")

    def test_add_edge_creating_cycle_rejected(self):
        with pytest.raises(GraphError):
            diamond().add_edge("d", "a")


class TestQueries:
    def test_parents_children(self):
        g = diamond()
        assert g.parents("d") == {"b", "c"}
        assert g.children("a") == {"b", "c"}
        assert g.parents("a") == set()

    def test_unknown_node_raises(self):
        with pytest.raises(GraphError, match="unknown"):
            diamond().parents("ghost")

    def test_ancestors_descendants(self):
        g = diamond()
        assert g.ancestors("d") == {"a", "b", "c"}
        assert g.descendants("a") == {"b", "c", "d"}
        assert g.descendants_of(["b", "c"]) == {"d"}
        assert g.ancestors_of(["b", "c"]) == {"a"}
        assert g.ancestors_of(["d", "b"]) == {"a", "b", "c"}
        assert g.ancestors_of([]) == set()

    def test_topological_order(self):
        order = diamond().topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_roots(self):
        assert diamond().roots() == {"a"}

    def test_contains_and_iter(self):
        g = diamond()
        assert "a" in g
        assert set(g) == {"a", "b", "c", "d"}


class TestSurgery:
    def test_remove_incoming(self):
        g = diamond().remove_incoming(["d"])
        assert g.parents("d") == set()
        assert g.has_edge("a", "b")

    def test_remove_outgoing(self):
        g = diamond().remove_outgoing(["a"])
        assert g.children("a") == set()
        assert g.has_edge("b", "d")

    def test_remove_incoming_unknown_raises(self):
        with pytest.raises(GraphError):
            diamond().remove_incoming(["ghost"])

    def test_subgraph(self):
        g = diamond().subgraph(["a", "b", "d"])
        assert g.n_nodes == 3
        assert g.has_edge("a", "b")
        assert g.has_edge("b", "d")
        assert not g.has_edge("a", "c")

    def test_mutation_of_original_blocked(self):
        g = diamond()
        g.remove_incoming(["d"])
        assert g.parents("d") == {"b", "c"}
