"""Tests for the oracle, permutation, and adaptive CI testers."""

import numpy as np
import pytest

from repro.causal.dag import CausalDAG
from repro.ci import oracle as oracle_module
from repro.ci.adaptive import AdaptiveCI
from repro.ci.base import CITestLedger
from repro.ci.executor import SerialExecutor
from repro.ci.oracle import GraphoidOracleBackend, OracleCI
from repro.ci.permutation import PermutationCI
from repro.core.grpsel import GrpSel
from repro.core.seqsel import SeqSel
from repro.core.subset_search import MarginalThenFull
from repro.data.schema import Kind, Role
from repro.data.synthetic import planted_bias_problem
from repro.data.table import Table
from repro.exceptions import CITestError


class TestOracleCI:
    def chain(self):
        return CausalDAG(edges=[("a", "b"), ("b", "c")])

    def test_matches_dseparation(self):
        oracle = OracleCI(self.chain())
        assert oracle.independent(None, "a", "c", "b")
        assert not oracle.independent(None, "a", "c")

    def test_pvalues_degenerate(self):
        oracle = OracleCI(self.chain())
        assert oracle.test(None, "a", "c", "b").p_value == 1.0
        assert oracle.test(None, "a", "c").p_value == 0.0

    def test_unknown_node_raises(self):
        with pytest.raises(CITestError, match="lacks"):
            OracleCI(self.chain()).test(None, "a", "ghost")

    def test_unknown_node_in_z_raises(self):
        with pytest.raises(CITestError, match="lacks"):
            OracleCI(self.chain()).test(None, "a", "c", ["b", "ghost"])

    def test_unknown_x_raises_after_reach_set_is_cached(self):
        oracle = OracleCI(self.chain())
        assert oracle.independent(None, "a", "c", "b")
        with pytest.raises(CITestError, match="lacks"):
            oracle.test(None, ["a", "ghost"], "c", "b")
        with pytest.raises(CITestError, match="lacks"):
            oracle.test_batch(None, [("a", "c", "b"), ("ghost", "c", "b")])

    def test_batch_matches_per_query_test(self):
        dag = CausalDAG(edges=[("a", "b"), ("b", "c"), ("d", "c"),
                               ("d", "e")])
        batch = [("a", "c"), ("a", "c", "b"), ("c", "a", "b"),
                 (["a", "d"], "e"), ("a", "e"), ("a", "e", "c"),
                 ("e", ["a", "b"], "c"), (["a", "b"], "e", ["c", "d"])]
        got = OracleCI(dag).test_batch(None, batch)
        want = [OracleCI(dag).test(None, *query) for query in batch]
        assert got == want
        assert [r.independent for r in got] == [
            False, True, True, False, True, False, False, True]

    def test_graphoid_backend(self):
        backend = GraphoidOracleBackend(self.chain())
        assert backend.independent({"a"}, {"c"}, {"b"})

    @pytest.mark.parametrize("make", [
        lambda ledger: SeqSel(tester=ledger,
                              subset_strategy=MarginalThenFull()),
        lambda ledger: GrpSel(tester=ledger,
                              subset_strategy=MarginalThenFull(), seed=0),
    ], ids=["seqsel", "grpsel"])
    def test_one_walk_per_distinct_y_and_z(self, monkeypatch, make):
        """Every reach set is walked from Y, once per ``(Y, Z)``.  The
        redundant features hang off a second sensitive root, so |S| = 2
        and each one-column phase-1 query ``X ⊥ S | A'`` has the smaller
        X side; a walk from it would cost one walk per query."""
        walks = []
        real = oracle_module.active_reachable

        def counting(dag, sources, given=()):
            walks.append((sources, given))
            return real(dag, sources, given)

        monkeypatch.setattr(oracle_module, "active_reachable", counting)
        planted = planted_bias_problem(300, 6, redundant_fraction=0.25,
                                       seed=0)
        assert len(planted.problem.sensitive) == 2
        ledger = CITestLedger(OracleCI(planted.scm.dag),
                              executor=SerialExecutor())
        make(ledger).select(planted.problem)
        pairs = {(entry.query.y, entry.query.z) for entry in ledger.entries}
        assert len(walks) == len(pairs)


class TestPermutationCI:
    def test_detects_dependence(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=500)
        b = a + 0.3 * rng.normal(size=500)
        t = Table({"a": a, "b": b})
        assert not PermutationCI(seed=0).independent(t, "a", "b")

    def test_accepts_independence(self):
        rng = np.random.default_rng(1)
        t = Table({"a": rng.normal(size=400), "b": rng.normal(size=400)})
        assert PermutationCI(seed=0).independent(t, "a", "b")

    def test_conditional_clears_confounder(self):
        rng = np.random.default_rng(2)
        z = (rng.random(800) < 0.5).astype(float)
        a = 2.0 * z + 0.5 * rng.normal(size=800)
        b = -2.0 * z + 0.5 * rng.normal(size=800)
        t = Table({"z": z, "a": a, "b": b})
        tester = PermutationCI(seed=0)
        assert not tester.independent(t, "a", "b")
        assert tester.independent(t, "a", "b", ["z"])

    def test_resolution_guard(self):
        with pytest.raises(CITestError, match="resolve"):
            PermutationCI(alpha=0.001, n_permutations=100)

    def test_minimum_permutations(self):
        with pytest.raises(CITestError):
            PermutationCI(n_permutations=5)


class TestAdaptiveCI:
    def make_mixed_table(self, n=3000, seed=0):
        rng = np.random.default_rng(seed)
        s = (rng.random(n) < 0.5).astype(int)
        d = np.where(rng.random(n) < 0.1, 1 - s, s)   # discrete proxy
        c = s + rng.normal(size=n)                      # continuous child
        w = rng.normal(size=n)
        return Table(
            {"s": s, "d": d, "c": c, "w": w},
            roles={"s": Role.SENSITIVE},
        )

    def test_discrete_query_routed_to_gtest(self):
        t = self.make_mixed_table()
        result = AdaptiveCI(seed=0).test(t, "d", "s")
        assert "g-test" in result.method

    def test_continuous_query_routed_to_rcit(self):
        t = self.make_mixed_table()
        result = AdaptiveCI(seed=0).test(t, "c", "s")
        assert "rcit" in result.method

    def test_verdicts_sensible(self):
        t = self.make_mixed_table()
        tester = AdaptiveCI(seed=0)
        assert not tester.independent(t, "d", "s")
        assert not tester.independent(t, "c", "s")
        assert tester.independent(t, "w", "s")

    def test_kind_metadata_respected(self):
        t = self.make_mixed_table()
        assert t.schema.spec("d").kind is Kind.BINARY
        assert t.schema.spec("c").kind is Kind.CONTINUOUS
