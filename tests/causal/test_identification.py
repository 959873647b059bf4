"""Tests for backdoor adjustment and the Lemma 10 graph check."""

import pytest

from repro.causal.dag import CausalDAG
from repro.causal.identification import (
    find_backdoor_set,
    is_backdoor_set,
    lemma10_condition,
)
from repro.exceptions import GraphError


def confounded():
    """u -> x, u -> y, x -> y: classic confounding."""
    return CausalDAG(edges=[("u", "x"), ("u", "y"), ("x", "y")])


class TestBackdoor:
    def test_confounder_is_valid_set(self):
        assert is_backdoor_set(confounded(), "x", "y", {"u"})

    def test_empty_set_invalid_under_confounding(self):
        assert not is_backdoor_set(confounded(), "x", "y", set())

    def test_descendant_of_treatment_invalid(self):
        g = CausalDAG(edges=[("x", "m"), ("m", "y"), ("u", "x"), ("u", "y")])
        assert not is_backdoor_set(g, "x", "y", {"m"})

    def test_adjustment_excludes_endpoints(self):
        with pytest.raises(GraphError):
            is_backdoor_set(confounded(), "x", "y", {"x"})

    def test_find_minimal_set(self):
        assert find_backdoor_set(confounded(), "x", "y") == {"u"}

    def test_find_returns_empty_when_unconfounded(self):
        g = CausalDAG(edges=[("x", "y")])
        assert find_backdoor_set(g, "x", "y") == set()

    def test_find_none_when_impossible(self):
        # Confounder exists but is excluded by max_size=0.
        assert find_backdoor_set(confounded(), "x", "y", max_size=0) is None


class TestLemma10:
    def fairness_graph(self):
        """S -> A -> Y', S -> B, M -> Y' with Y' children of A, M."""
        return CausalDAG(edges=[
            ("S", "A"), ("S", "B"), ("A", "M"),
            ("A", "Yp"), ("M", "Yp"),
        ])

    def test_holds_for_safe_features(self):
        g = self.fairness_graph()
        assert lemma10_condition(g, "Yp", ["S"], ["A"], ["M"])

    def test_holds_even_with_biased_features(self):
        """Lemma 10 conditions on T, so it holds for *any* feature set —
        Assumption 2 makes Y' a function of A ∪ T alone.  Unfairness
        enters when T is marginalised out (Definition 1), which is what
        Lemmas 5/6 handle; this is why phase-1/2 conditions matter and
        Lemma 10 alone does not certify fairness."""
        g = self.fairness_graph().add_edge("B", "Yp")
        assert lemma10_condition(g, "Yp", ["S"], ["A"], ["M", "B"])

    def test_fails_when_prediction_has_hidden_sensitive_path(self):
        """If Y' has an S-path outside A ∪ T (violating Assumption 2),
        the rule-3 side condition correctly fails."""
        g = self.fairness_graph().add_edge("S", "Yp")
        assert not lemma10_condition(g, "Yp", ["S"], ["A"], ["M"])
