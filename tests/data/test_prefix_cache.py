"""Tests for the streaming-growth prefix cache.

:meth:`Table.with_appended_rows` children seed incremental caches from
their parent (per-column hash states, code prefixes, moment partial
sums).  The contract under test: every observable of a grown table is
**bitwise identical** to a cold table built over the concatenated
values, while fingerprinting hashes only the appended tail.
"""

import pickle

import numpy as np
import pytest

from repro.data import table as table_mod
from repro.data.schema import Kind, Role
from repro.data.table import Table
from repro.exceptions import SchemaError


def make_parent(n=200):
    rng = np.random.default_rng(3)
    return Table(
        {
            "s": rng.integers(0, 2, n),
            "a": rng.integers(0, 4, n),
            "x": rng.normal(size=n),
            "y": rng.integers(0, 2, n),
        },
        roles={"s": Role.SENSITIVE, "a": Role.ADMISSIBLE, "y": Role.TARGET},
    )


def tail_rows(n=50, seed=9, levels=4):
    rng = np.random.default_rng(seed)
    return {
        "s": rng.integers(0, 2, n),
        "a": rng.integers(0, levels, n),
        "x": rng.normal(size=n),
        "y": rng.integers(0, 2, n),
    }


def cold_twin(grown: Table) -> Table:
    """A freshly built table with the grown table's exact values."""
    return Table({n: np.array(grown[n]) for n in grown.columns},
                 schema=grown.schema)


class TestWithAppendedRows:
    def test_values_are_concatenated(self):
        parent = make_parent()
        rows = tail_rows()
        child = parent.with_appended_rows(rows)
        assert child.n_rows == parent.n_rows + 50
        for name in parent.columns:
            np.testing.assert_array_equal(child[name][:parent.n_rows],
                                          parent[name])
            np.testing.assert_array_equal(
                child[name][parent.n_rows:],
                np.asarray(rows[name]).astype(parent[name].dtype))

    def test_schema_carries_over(self):
        child = make_parent().with_appended_rows(tail_rows())
        assert child.schema.sensitive == ["s"]
        assert child.schema.target == "y"
        assert child.schema.spec("x").kind is Kind.CONTINUOUS

    def test_parent_is_untouched(self):
        parent = make_parent()
        before = parent.fingerprint
        parent.with_appended_rows(tail_rows())
        assert parent.n_rows == 200
        assert parent.fingerprint == before

    def test_missing_column_rejected(self):
        rows = tail_rows()
        del rows["x"]
        with pytest.raises(SchemaError, match="exactly the table's"):
            make_parent().with_appended_rows(rows)

    def test_extra_column_rejected(self):
        rows = tail_rows()
        rows["ghost"] = np.zeros(50)
        with pytest.raises(SchemaError, match="ghost"):
            make_parent().with_appended_rows(rows)

    def test_2d_tail_rejected(self):
        rows = tail_rows()
        rows["x"] = np.zeros((50, 2))
        with pytest.raises(SchemaError, match="1-D"):
            make_parent().with_appended_rows(rows)

    def test_mismatched_tail_lengths_rejected(self):
        rows = tail_rows()
        rows["x"] = np.zeros(7)
        with pytest.raises(SchemaError, match="mismatched lengths"):
            make_parent().with_appended_rows(rows)

    def test_tail_cast_to_column_dtype(self):
        parent = make_parent()
        rows = tail_rows()
        rows["x"] = np.arange(50, dtype=np.int64)  # int into a float column
        child = parent.with_appended_rows(rows)
        assert child["x"].dtype == parent["x"].dtype


class TestBitwiseEquivalence:
    """Grown-table observables equal a cold rebuild, bit for bit."""

    def test_all_observables(self):
        parent = make_parent()
        # Warm every incremental cache on the parent first, so the child
        # takes the prefix-extension paths rather than cold ones.
        parent.warm_cache()
        _ = parent.fingerprint
        child = parent.with_appended_rows(tail_rows())
        cold = cold_twin(child)
        assert child.fingerprint == cold.fingerprint
        for key in (["s"], ["a"], ["s", "a"], ["s", "a", "y"]):
            assert child.fingerprint_of(key) == cold.fingerprint_of(key)
            codes, n = child.discrete_codes(key)
            cold_codes, cold_n = cold.discrete_codes(key)
            assert n == cold_n
            np.testing.assert_array_equal(np.asarray(codes),
                                          np.asarray(cold_codes))
        np.testing.assert_array_equal(
            np.asarray(child.standardized_block(["x"])),
            np.asarray(cold.standardized_block(["x"])))

    def test_new_category_level_in_tail(self):
        # The tail introduces an unseen level: the prefix codes must be
        # relabelled, not just extended.
        parent = make_parent()
        parent.discrete_codes("a")
        child = parent.with_appended_rows(tail_rows(levels=6))
        cold = cold_twin(child)
        codes, n = child.discrete_codes("a")
        cold_codes, cold_n = cold.discrete_codes("a")
        assert n == cold_n
        np.testing.assert_array_equal(np.asarray(codes),
                                      np.asarray(cold_codes))

    def test_chained_growth(self):
        table = make_parent()
        for seed in (1, 2, 3):
            table.warm_cache()
            _ = table.fingerprint
            table = table.with_appended_rows(tail_rows(n=30, seed=seed))
        cold = cold_twin(table)
        assert table.n_rows == 290
        assert table.fingerprint == cold.fingerprint
        np.testing.assert_array_equal(
            np.asarray(table.discrete_codes(["s", "a"])[0]),
            np.asarray(cold.discrete_codes(["s", "a"])[0]))

    def test_pickle_round_trip(self):
        parent = make_parent()
        _ = parent.fingerprint
        child = parent.with_appended_rows(tail_rows())
        _ = child.fingerprint
        clone = pickle.loads(pickle.dumps(child))
        assert clone.fingerprint == child.fingerprint
        assert clone.fingerprint_of(["s", "a"]) == \
            child.fingerprint_of(["s", "a"])


class TestPrefixReuse:
    """The child actually *reuses* parent state: fingerprinting a grown
    table re-hashes only the appended tail."""

    def test_only_tail_is_hashed(self, monkeypatch):
        parent = make_parent(n=500)
        _ = parent.fingerprint  # materialise every per-column hash state
        child = parent.with_appended_rows(tail_rows(n=25))
        hashed_rows = []
        real = table_mod.hash_array_blocks

        def counting(digest, arr):
            hashed_rows.append(arr.shape[0])
            return real(digest, arr)

        monkeypatch.setattr(table_mod, "hash_array_blocks", counting)
        # _adopt_prefix already extended the states at construction time;
        # fingerprinting now must not touch column bytes at all.
        _ = child.fingerprint
        _ = child.fingerprint_of(["s"])
        assert hashed_rows == []

    def test_adoption_extends_with_tail_only(self, monkeypatch):
        parent = make_parent(n=500)
        _ = parent.fingerprint
        hashed_rows = []
        real = table_mod.hash_array_blocks

        def counting(digest, arr):
            hashed_rows.append(arr.shape[0])
            return real(digest, arr)

        monkeypatch.setattr(table_mod, "hash_array_blocks", counting)
        child = parent.with_appended_rows(tail_rows(n=25))
        _ = child.fingerprint
        assert hashed_rows == [25] * 4  # one tail extension per column

    def test_cold_parent_forces_no_work(self):
        # Adoption is opportunistic: an unwarmed parent contributes
        # nothing, and the child simply computes cold (still correct).
        parent = make_parent()
        child = parent.with_appended_rows(tail_rows())
        cold = cold_twin(child)
        assert child.fingerprint == cold.fingerprint

    def test_repeated_fingerprints_are_memoised(self, monkeypatch):
        table = make_parent()
        _ = table.fingerprint
        calls = []
        monkeypatch.setattr(
            table_mod, "hash_array_blocks",
            lambda digest, arr: calls.append(arr.shape[0]))
        _ = table.fingerprint
        _ = table.fingerprint_of(["a"])
        assert calls == []
