"""Tests for the streaming-growth prefix cache.

:meth:`Table.with_appended_rows` children seed incremental caches from
their parent (per-column hash states, code prefixes, moment partial
sums).  The contract under test: every observable of a grown table is
**bitwise identical** to a cold table built over the concatenated
values, while fingerprinting hashes only the appended tail.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestLossyAppendRejected:
    """A tail value the cast to its column's dtype would change is a
    SchemaError naming the column, raised before any buffer is claimed."""

    @staticmethod
    def one_column(values, tail):
        with pytest.raises(SchemaError, match="'c'"):
            Table({"c": values}).with_appended_rows({"c": tail})

    def test_fraction_into_int_column(self):
        self.one_column(np.array([1, 2], dtype=np.int64), [0.5, 2.7])

    def test_out_of_range_into_uint8_column(self):
        self.one_column(np.array([1, 2], dtype=np.uint8),
                        np.array([300, -1]))

    def test_nan_into_int_column(self):
        self.one_column(np.array([1, 2], dtype=np.int64),
                        np.array([1.0, np.nan]))

    def test_string_longer_than_fixed_width_column(self):
        # same_kind casting allows <U7 -> <U3; only the values show the
        # truncation.
        assert np.can_cast(np.dtype("<U7"), np.dtype("<U3"), "same_kind")
        self.one_column(np.array(["abc", "de"]), np.array(["toolong"]))

    def test_exact_casts_pass(self):
        grown = Table({"f": np.array([0.5], np.float32),
                       "i": np.array([1], np.int64),
                       "b": np.array([True])}).with_appended_rows(
            {"f": np.array([2, np.nan]), "i": np.array([3.0, -4.0]),
             "b": np.array([0, 1])})
        np.testing.assert_array_equal(grown["f"], [0.5, 2.0, np.nan])
        assert grown["i"].tolist() == [1, 3, -4]
        assert grown["b"].tolist() == [True, False, True]

    def test_rejected_tail_claims_no_buffer(self):
        # The lossy value sits in the last column: the columns before it
        # must not have claimed their buffers' spare rows, so the next
        # valid append still grows the parent's buffers in place.
        parent = make_parent().with_appended_rows(tail_rows(n=5))
        bad = tail_rows(n=5)
        bad["y"] = np.array([0.5] * 5)
        with pytest.raises(SchemaError, match="'y'"):
            parent.with_appended_rows(bad)
        child = parent.with_appended_rows(tail_rows(n=5))
        for name in parent.columns:
            assert child[name].base is parent[name].base


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


def backing_array(arr: np.ndarray) -> np.ndarray | None:
    """The ndarray ``arr`` is a view of, if any."""
    base = arr.base
    return base if isinstance(base, np.ndarray) else None


def assert_frozen(arr: np.ndarray) -> None:
    """``arr`` and any array it is a view of are read-only."""
    assert arr.flags.writeable is False
    base = backing_array(arr)
    assert base is None or base.flags.writeable is False
    if arr.size:
        with pytest.raises(ValueError):
            arr[0] = arr[0]


#: Lineage operations of the append-buffer property test.
LINEAGE_OPS = st.lists(
    st.tuples(st.sampled_from(["append", "append", "with_column", "select",
                               "codes"]),
              st.integers(0, 10 ** 6),  # which table
              st.integers(0, 12),       # tail rows
              st.integers(0, 2 ** 16)),  # value seed
    max_size=14)


class TestAppendBuffers:
    """Appends grow shared buffers in place only when that is invisible:
    sibling appends, appends after ``with_column`` and ``select``, chains,
    and lazy codes in between all leave every table equal to a cold
    rebuild, with its columns (and their buffers) read-only."""

    @staticmethod
    def start(n_rows, seed):
        rng = np.random.default_rng(seed)
        return Table({"a": rng.integers(0, 3, n_rows),
                      "x": rng.normal(size=n_rows),
                      "u": rng.integers(0, 4, n_rows).astype(np.uint8)})

    @staticmethod
    def tail(table, k, rng):
        out = {}
        for name in table.columns:
            dtype = table[name].dtype
            if dtype.kind == "f":
                out[name] = rng.normal(size=k)
            else:  # sometimes a level the parent has not seen
                out[name] = rng.integers(0, 5, k).astype(dtype)
        return out

    @settings(max_examples=120, deadline=None)
    @given(n_rows=st.integers(0, 40), seed=st.integers(0, 2 ** 16),
           ops=LINEAGE_OPS)
    def test_lineage_matches_cold_rebuild(self, n_rows, seed, ops):
        tables = [self.start(n_rows, seed)]
        expected = [{n: np.array(tables[0][n]) for n in tables[0].columns}]
        for kind, pick, k, value_seed in ops:
            rng = np.random.default_rng(value_seed)
            index = pick % len(tables)
            table, values = tables[index], expected[index]
            if kind == "codes":
                table.discrete_codes(table.columns[pick % table.n_cols])
                continue
            if kind == "append":
                rows = self.tail(table, k, rng)
                child = table.with_appended_rows(rows)
                grown = {n: np.concatenate([values[n], rows[n]])
                         for n in table.columns}
            elif kind == "with_column":
                name = ("a", "w")[value_seed % 2]
                column = rng.integers(0, 3, table.n_rows)
                child = table.with_column(name, column)
                grown = dict(values, **{name: column.copy()})
                grown = {n: grown[n] for n in child.columns}
            else:
                keep = table.columns[:1 + pick % table.n_cols]
                child = table.select(keep)
                grown = {n: values[n] for n in keep}
            for name in child.columns:
                assert_frozen(child[name])
            tables.append(child)
            expected.append(grown)

        for table, values in zip(tables, expected):
            assert table.columns == list(values)
            cold = Table({n: np.array(values[n]) for n in values},
                         schema=table.schema)
            assert table.fingerprint == cold.fingerprint
            for name in table.columns:
                assert table[name].dtype == values[name].dtype
                np.testing.assert_array_equal(table[name], values[name])
                assert_frozen(table[name])
                assert table.fingerprint_of([name]) == \
                    cold.fingerprint_of([name])
                codes, levels = table.discrete_codes(name)
                cold_codes, cold_levels = cold.discrete_codes(name)
                assert levels == cold_levels
                np.testing.assert_array_equal(codes, cold_codes)
                assert_frozen(codes)
            joint = table.columns
            np.testing.assert_array_equal(table.discrete_codes(joint)[0],
                                          cold.discrete_codes(joint)[0])
            clone = pickle.loads(pickle.dumps(table))
            for name in clone.columns:
                np.testing.assert_array_equal(clone[name], values[name])
                base = backing_array(clone[name])
                assert base is None or base.nbytes == clone[name].nbytes
            assert clone._col_buffers == {} and clone._code_buffers == {}

    def test_siblings_never_share_tail_rows(self):
        parent = make_parent().with_appended_rows(tail_rows(n=5))
        parent.discrete_codes("a")
        first = parent.with_appended_rows(tail_rows(n=5, seed=1))
        second = parent.with_appended_rows(tail_rows(n=5, seed=2))
        first_values = {n: np.array(first[n]) for n in first.columns}
        first_codes = np.array(first.discrete_codes("a")[0])
        second.discrete_codes("a")
        # The first append grew the parent's buffers in place, codes
        # included; the second had to copy, so the first's rows are
        # untouched.
        for name in parent.columns:
            assert first[name].base is parent[name].base
            assert not np.shares_memory(second[name], first[name])
            np.testing.assert_array_equal(first[name], first_values[name])
        codes = first.discrete_codes("a")[0]
        assert codes.base is parent.discrete_codes("a")[0].base
        assert not np.shares_memory(second.discrete_codes("a")[0], codes)
        np.testing.assert_array_equal(codes, first_codes)

    def test_concurrent_sibling_appends(self):
        """Threads racing to append to one parent: exactly one grows the
        parent's buffers in place, and every child holds exactly the
        parent's rows plus its own tail."""
        parent = make_parent(n=400).with_appended_rows(tail_rows(n=8))
        parent.discrete_codes("a")
        tails = [tail_rows(n=8, seed=seed) for seed in range(12)]
        children = [None] * len(tails)

        def append(i):
            child = parent.with_appended_rows(tails[i])
            child.discrete_codes("a")
            children[i] = child

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append, args=(i,))
                       for i in range(len(tails))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        in_place = [child for child in children
                    if child["a"].base is parent["a"].base]
        assert len(in_place) == 1
        for child, tail in zip(children, tails):
            cold = cold_twin(child)
            for name in parent.columns:
                np.testing.assert_array_equal(
                    child[name], np.concatenate([parent[name], tail[name]]))
            np.testing.assert_array_equal(child.discrete_codes("a")[0],
                                          cold.discrete_codes("a")[0])
