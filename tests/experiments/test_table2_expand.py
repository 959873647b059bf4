"""Tests for the Table-2 feature expansion helper."""

import pytest

from repro.data.loaders import load_german
from repro.experiments.table2 import expand_dataset, table2_row


@pytest.fixture(scope="module")
def german():
    return load_german(seed=0, n_train=1500, n_test=600)


class TestExpandDataset:
    def test_train_and_test_widen_identically(self, german):
        expanded = expand_dataset(german, max_new=30, rounds=1)
        assert expanded.train.columns == expanded.test.columns
        assert expanded.train.n_cols > german.train.n_cols

    def test_budget_respected(self, german):
        expanded = expand_dataset(german, max_new=10, rounds=2)
        assert expanded.train.n_cols <= german.train.n_cols + 10

    def test_derived_are_candidates(self, german):
        expanded = expand_dataset(german, max_new=20, rounds=1)
        derived = [c for c in expanded.train.columns
                   if c not in german.train.columns]
        assert derived
        for column in derived:
            assert column in expanded.train.schema.candidates

    def test_two_rounds_compose(self, german):
        one = expand_dataset(german, max_new=500, rounds=1)
        two = expand_dataset(german, max_new=500, rounds=2)
        assert two.train.n_cols > one.train.n_cols
        # Round 2 must contain transforms *of* round-1 outputs.
        nested = [c for c in two.train.columns if c.count("(") >= 2]
        assert nested

    def test_metadata_preserved(self, german):
        expanded = expand_dataset(german, max_new=10)
        assert expanded.name == german.name
        assert expanded.biased_features == german.biased_features
        assert expanded.scm is german.scm


class TestTable2RowWithoutExpansion:
    def test_n_derived_zero_uses_raw_pool(self, german):
        row = table2_row(german, seed=0, n_derived=0)
        # Raw German has 10 candidates; SeqSel needs at most a few tests
        # per candidate with the marginal+full strategy plus phase 2.
        assert row.seqsel_tests <= 3 * 10
        assert row.cmi_pred <= row.cmi_target + 1e-9


class TestTable2PersistentCache:
    def test_cold_counts_uncorrupted_and_warm_rerun_free(self, german,
                                                         tmp_path):
        """Regression: a single cache shared by both selectors let GrpSel's
        run answer SeqSel's queries, reporting ~0 SeqSel tests on a *cold*
        run — the per-selector namespaces must keep cold counts identical
        to the storeless row, while a full rerun replays both memoised
        selections with their cold counts."""
        from repro.ci.store import ExperimentStore
        plain = table2_row(german, seed=0, n_derived=0)
        cold = table2_row(german, seed=0, n_derived=0, store=str(tmp_path))
        assert cold.seqsel_tests == plain.seqsel_tests
        assert cold.grpsel_tests == plain.grpsel_tests
        assert (tmp_path / "ci" / "grpsel.json").exists()
        assert (tmp_path / "ci" / "seqsel.json").exists()

        store = ExperimentStore(tmp_path)
        warm = table2_row(german, seed=0, n_derived=0, store=store)
        assert store.selection_hits == 2
        assert warm.seqsel_tests == cold.seqsel_tests
        assert warm.grpsel_tests == cold.grpsel_tests
        assert warm.cmi_pred == pytest.approx(cold.cmi_pred)
