"""Tests for data integration (PK-FK sources) and Cognito transforms."""

import numpy as np
import pytest

from repro.ci.oracle import OracleCI
from repro.core.seqsel import SeqSel
from repro.data.integration import FeatureSource, add_entity_key, integrate
from repro.data.schema import Role
from repro.data.synthetic import independent_features_table, planted_bias_problem
from repro.data.table import Table
from repro.data.transforms import cognito_expand
from repro.exceptions import SchemaError


def base_table(n=50):
    rng = np.random.default_rng(0)
    return Table(
        {
            "s": (rng.random(n) < 0.5).astype(int),
            "a": (rng.random(n) < 0.5).astype(int),
            "y": (rng.random(n) < 0.5).astype(int),
        },
        roles={"s": Role.SENSITIVE, "a": Role.ADMISSIBLE, "y": Role.TARGET},
    )


class TestIntegration:
    def test_add_entity_key(self):
        t = add_entity_key(base_table())
        np.testing.assert_array_equal(t["entity_id"], np.arange(50))

    def test_add_entity_key_conflict(self):
        t = add_entity_key(base_table())
        with pytest.raises(SchemaError):
            add_entity_key(t)

    def test_integrate_joins_sources_as_candidates(self):
        base = add_entity_key(base_table())
        rng = np.random.default_rng(1)
        source = FeatureSource(
            name="credit_bureau",
            table=Table({"entity_id": np.arange(50),
                         "score": rng.normal(size=50)}),
            key="entity_id",
        )
        merged = integrate(base, [source])
        assert "score" in merged
        assert merged.schema.spec("score").role is Role.CANDIDATE
        assert merged.n_rows == 50

    def test_source_key_must_be_unique(self):
        with pytest.raises(SchemaError, match="unique"):
            FeatureSource("dup", Table({"k": np.array([0, 0])}), key="k")

    def test_source_missing_key(self):
        with pytest.raises(SchemaError):
            FeatureSource("nokey", Table({"v": np.zeros(3)}), key="k")

    def test_incremental_selection_union_matches_batch(self):
        """Lemma 3: selecting each arriving batch on its own and taking the
        union of the safe sets matches one run over the whole pool when the
        tester is sound."""
        planted = planted_bias_problem(12, 3, n_samples=0, seed=0)
        selector = SeqSel(tester=OracleCI(planted.scm.dag))
        pool = planted.problem.candidates
        batches = [pool[:6], pool[6:]]
        results = [selector.select(planted.problem.with_candidates(batch))
                   for batch in batches]
        union = set().union(*(r.selected_set for r in results))
        full = selector.select(planted.problem).selected_set
        assert union == full


class TestTransforms:
    def test_cognito_expand_caps_and_roles(self):
        t = base_table()
        t = t.with_column("u", np.arange(50.0), role=Role.CANDIDATE)
        t = t.with_column("v", np.arange(50.0) * 2, role=Role.CANDIDATE)
        out = cognito_expand(t, max_new=3)
        derived = [c for c in out.columns if "(" in c]
        assert len(derived) == 3
        for col in derived:
            assert out.schema.spec(col).role is Role.CANDIDATE


class TestSynthetic:
    def test_planted_problem_schema_only(self):
        planted = planted_bias_problem(10, 2, n_samples=0, seed=1)
        assert planted.problem.table.n_rows == 1
        assert planted.problem.n_candidates == 10
        assert len(planted.ground.biased) == 2

    def test_planted_problem_with_samples(self):
        planted = planted_bias_problem(8, 2, n_samples=500, seed=1)
        assert planted.problem.table.n_rows == 500

    def test_independent_features_table(self):
        t = independent_features_table(5, 300, seed=2)
        assert t.schema.candidates == [f"F{i}" for i in range(5)]
        assert t.schema.sensitive == ["S"]
        assert t.n_rows == 300
