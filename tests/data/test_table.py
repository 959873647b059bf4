"""Tests for repro.data.table."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.schema import Kind, Role
from repro.data.table import Table, _infer_kind, _unique_inverse, iter_slices
from repro.exceptions import SchemaError

#: Every bool and integer width ``_infer_kind`` answers without sorting.
INT_DTYPES = ("bool", "int8", "int16", "int32", "int64",
              "uint8", "uint16", "uint32", "uint64")


def unique_kind(values: np.ndarray) -> Kind:
    """The ``np.unique`` formula ``_infer_kind`` replaced for bool and
    integer columns: the reference its fast path must equal."""
    if np.unique(values).size <= 2:
        return Kind.BINARY
    return Kind.DISCRETE


@st.composite
def int_columns(draw):
    """Bool/integer columns: empty, constant, the dtype extremes, two
    non-adjacent values, three consecutive values, or arbitrary draws."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype) if dtype.kind != "b" else None
    lo, hi = (0, 1) if info is None else (int(info.min), int(info.max))
    size = draw(st.integers(min_value=0, max_value=12))
    pool = draw(st.sampled_from(["any", "extremes", "pair", "constant",
                                 "window"]))
    if pool == "extremes":
        choices = [lo, hi]
    elif pool == "window":
        start = draw(st.integers(lo, max(lo, hi - 2)))
        choices = list(range(start, min(start + 3, hi + 1)))
    elif pool == "pair":
        first = draw(st.integers(lo, hi))
        second = draw(st.integers(lo, hi))
        choices = [first, second]
    elif pool == "constant":
        choices = [draw(st.integers(lo, hi))]
    else:
        return draw(hnp.arrays(dtype, size))
    return np.array([draw(st.sampled_from(choices)) for _ in range(size)],
                    dtype=dtype)


def make_table(n=10):
    return Table(
        {
            "s": np.arange(n) % 2,
            "x": np.linspace(0.0, 1.0, n),
            "y": (np.arange(n) % 3 == 0).astype(int),
        },
        roles={"s": Role.SENSITIVE, "y": Role.TARGET},
    )


class TestConstruction:
    def test_basic_shape(self):
        t = make_table()
        assert t.n_rows == 10
        assert t.n_cols == 3
        assert len(t) == 10

    def test_columns_are_copied(self):
        source = np.zeros(5)
        t = Table({"a": source})
        source[0] = 99.0
        assert t["a"][0] == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SchemaError, match="mismatched"):
            Table({"a": np.zeros(3), "b": np.zeros(4)})

    def test_2d_column_rejected(self):
        with pytest.raises(SchemaError, match="1-D"):
            Table({"a": np.zeros((3, 2))})

    def test_roles_for_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            Table({"a": np.zeros(3)}, roles={"ghost": Role.TARGET})

    def test_empty_columns_roundtrip(self):
        table = Table({"a": np.array([], dtype=np.int64)})
        assert table.n_rows == 0
        assert table["a"].shape == (0,)
        clone = pickle.loads(pickle.dumps(table))
        assert clone.equals(table)

    @settings(max_examples=300, deadline=None)
    @given(values=int_columns())
    @example(values=np.array([], dtype=np.uint64))
    @example(values=np.array([3, 3, 3], dtype=np.uint8))
    @example(values=np.array([-5, 7, -5], dtype=np.int16))
    @example(values=np.array([-5, 0, 7], dtype=np.int32))
    @example(values=np.array([2, 0, 1], dtype=np.int8))
    @example(values=np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]))
    @example(values=np.array([0, 1, np.iinfo(np.uint64).max], dtype=np.uint64))
    @example(values=np.array([True, False, True]))
    def test_kind_inference(self, values):
        assert _infer_kind(np.array([0, 1, 0])) is Kind.BINARY
        assert _infer_kind(np.array([0, 1, 2, 3, 4])) is Kind.DISCRETE
        assert _infer_kind(np.array([0.1, 0.5, 0.7])) is Kind.CONTINUOUS
        # Bool and integer columns skip the sort, and must still give
        # exactly the kind np.unique gives.
        assert _infer_kind(values) is unique_kind(values)


class TestRowWindows:
    def test_iter_slices_partitions_exactly(self):
        for n in (0, 1, 7, 64):
            for chunk in (1, 3, 7, 100):
                windows = list(iter_slices(n, chunk))
                covered = [i for w in windows for i in range(w.start, w.stop)]
                assert covered == list(range(n))


class TestAccess:
    def test_getitem_unknown_raises(self):
        with pytest.raises(SchemaError, match="unknown"):
            make_table()["ghost"]

    def test_matrix_shape_and_order(self):
        t = make_table()
        m = t.matrix(["x", "s"])
        assert m.shape == (10, 2)
        np.testing.assert_allclose(m[:, 1], t["s"].astype(float))

    def test_matrix_empty_names(self):
        assert make_table().matrix([]).shape == (10, 0)

    def test_xy(self):
        X, y = make_table().xy(["x"])
        assert X.shape == (10, 1)
        assert y.shape == (10,)

    def test_xy_without_target_raises(self):
        t = Table({"a": np.zeros(4)})
        with pytest.raises(SchemaError):
            t.xy(["a"])


class TestRelationalOps:
    def test_select_and_drop(self):
        t = make_table()
        assert t.select(["x"]).columns == ["x"]
        assert t.drop(["x"]).columns == ["s", "y"]

    def test_drop_unknown_raises(self):
        with pytest.raises(SchemaError):
            make_table().drop(["ghost"])

    def test_take_boolean_and_integer(self):
        t = make_table()
        taken = t.take(np.array([0, 2, 4]))
        assert taken.n_rows == 3
        mask = t["s"] == 1
        assert t.take(mask).n_rows == int(mask.sum())

    def test_with_column_replaces_and_appends(self):
        t = make_table()
        t2 = t.with_column("z", np.ones(10), role=Role.CANDIDATE)
        assert "z" in t2
        assert t2.schema.spec("z").role is Role.CANDIDATE
        t3 = t2.with_column("z", np.zeros(10))
        assert t3.n_cols == t2.n_cols
        assert float(t3["z"].sum()) == 0.0

    def test_with_column_wrong_length_raises(self):
        with pytest.raises(SchemaError):
            make_table().with_column("z", np.ones(3))

    def test_rename(self):
        t = make_table().rename({"x": "feature"})
        assert "feature" in t
        assert "x" not in t

    def test_roles_preserved_through_take(self):
        t = make_table().take(np.array([1, 2]))
        assert t.schema.sensitive == ["s"]
        assert t.schema.target == "y"


class TestJoin:
    def test_inner_join_appends_columns(self):
        left = Table({"k": np.array([0, 1, 2, 1]), "v": np.arange(4)})
        right = Table({"k": np.array([0, 1, 2]), "w": np.array([10, 11, 12])})
        joined = left.join(right, on="k")
        assert joined.n_rows == 4
        np.testing.assert_array_equal(joined["w"], [10, 11, 12, 11])

    def test_inner_join_drops_unmatched(self):
        left = Table({"k": np.array([0, 5]), "v": np.array([1, 2])})
        right = Table({"k": np.array([0]), "w": np.array([9])})
        joined = left.join(right, on="k")
        assert joined.n_rows == 1

    def test_left_join_missing_key_raises(self):
        left = Table({"k": np.array([0, 5])})
        right = Table({"k": np.array([0]), "w": np.array([9])})
        with pytest.raises(SchemaError, match="drop"):
            left.join(right, on="k", how="left")

    def test_join_nonunique_right_key_raises(self):
        left = Table({"k": np.array([0])})
        right = Table({"k": np.array([0, 0]), "w": np.array([1, 2])})
        with pytest.raises(SchemaError, match="unique"):
            left.join(right, on="k")

    def test_join_duplicate_column_raises(self):
        left = Table({"k": np.array([0]), "w": np.array([5])})
        right = Table({"k": np.array([0]), "w": np.array([9])})
        with pytest.raises(SchemaError, match="duplicate"):
            left.join(right, on="k")

    def test_join_role_propagation(self):
        left = Table({"k": np.array([0, 1])})
        right = Table({"k": np.array([0, 1]), "f": np.array([3, 4])},
                      roles={"f": Role.CANDIDATE})
        joined = left.join(right, on="k")
        assert joined.schema.spec("f").role is Role.CANDIDATE


class TestSplit:
    def test_split_partitions_rows(self):
        t = make_table()
        train, test = t.split(0.7, seed=0)
        assert train.n_rows + test.n_rows == t.n_rows
        assert train.n_rows == 7

    def test_split_bad_fraction(self):
        with pytest.raises(SchemaError):
            make_table().split(1.5)

    def test_split_deterministic(self):
        t = make_table()
        a1, _ = t.split(0.5, seed=3)
        a2, _ = t.split(0.5, seed=3)
        assert a1.equals(a2)


class TestEquality:
    def test_equals_self(self):
        t = make_table()
        assert t.equals(t)

    def test_not_equals_different_values(self):
        t = make_table()
        t2 = t.with_column("x", np.zeros(10))
        assert not t.equals(t2)

    def test_to_dict_roundtrip(self):
        t = make_table()
        t2 = Table(t.to_dict(), schema=t.schema)
        assert t.equals(t2)


class TestCIEngineCaches:
    def test_fingerprint_content_addressed(self):
        assert make_table().fingerprint == make_table().fingerprint

    def test_fingerprint_differs_on_data(self):
        t = make_table()
        t2 = t.with_column("x", np.zeros(t.n_rows))
        assert t.fingerprint != t2.fingerprint

    def test_fingerprint_differs_on_names(self):
        t = Table({"a": np.arange(4)})
        t2 = Table({"b": np.arange(4)})
        assert t.fingerprint != t2.fingerprint

    def test_fingerprint_cached(self):
        t = make_table()
        assert t.fingerprint is t.fingerprint

    def test_fingerprint_differs_on_kind(self):
        """Kind-aware testers dispatch on the schema kind, so identical
        values annotated differently must not share a fingerprint."""
        t = Table({"a": np.arange(8), "b": np.arange(8)})
        relabelled = t.with_column("a", t["a"], kind=Kind.CONTINUOUS)
        assert t.fingerprint != relabelled.fingerprint

    def test_fingerprint_of_subset(self):
        t = make_table()
        # Order-insensitive, content-addressed, and blind to other columns.
        assert t.fingerprint_of(["s", "x"]) == t.fingerprint_of(["x", "s"])
        widened = t.with_column("extra", np.zeros(t.n_rows))
        assert widened.fingerprint_of(["s", "x"]) == t.fingerprint_of(["s", "x"])
        changed = t.with_column("x", np.zeros(t.n_rows))
        assert changed.fingerprint_of(["s", "x"]) != t.fingerprint_of(["s", "x"])

    def test_fingerprint_of_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_table().fingerprint_of(["ghost"])

    def test_float_column_cached_and_readonly(self):
        t = make_table()
        col = t.float_column("s")
        assert col is t.float_column("s")
        assert col.dtype == float
        with pytest.raises(ValueError):
            col[0] = 99.0

    def test_matrix_unaffected_by_cache(self):
        t = make_table()
        m1 = t.matrix(["s", "y"])
        m1[0, 0] = 42.0  # fresh writable copy, caches untouched
        m2 = t.matrix(["s", "y"])
        assert m2[0, 0] != 42.0

    def test_discrete_codes_single_column(self):
        t = Table({"a": np.array([5, 3, 5, 7])})
        codes, n_levels = t.discrete_codes("a")
        np.testing.assert_array_equal(codes, [1, 0, 1, 2])
        assert n_levels == 3

    def test_discrete_codes_rounds_floats(self):
        t = Table({"a": np.array([0.9, 1.1, 2.0])})
        codes, n_levels = t.discrete_codes("a")
        np.testing.assert_array_equal(codes, [0, 0, 1])
        assert n_levels == 2

    def test_discrete_codes_joint_matches_encode_rows(self):
        from repro.ci.base import encode_rows

        rng = np.random.default_rng(0)
        small = {"a": rng.integers(0, 3, 50), "b": rng.integers(0, 4, 50),
                 "c": rng.integers(0, 2, 50)}
        # Six columns of ~2,400 levels push the mixed radix past 2**62,
        # so the joint codes come from the row-wise unique fallback.
        wide = {f"w{i}": rng.integers(0, 3600, 4000) for i in range(6)}
        wide["t"] = rng.integers(0, 3, 4000)
        for columns in (small, wide):
            t = Table(columns)
            names = list(columns)
            levels = [t.discrete_codes(name)[1] for name in names]
            assert (np.prod(levels, dtype=float) > 2.0 ** 62) == (
                columns is wide)
            codes, n_levels = t.discrete_codes(tuple(names))
            expected = encode_rows(
                np.round(t.matrix(names)).astype(np.int64))
            np.testing.assert_array_equal(codes, expected)
            assert n_levels == len(np.unique(expected))

    def test_discrete_codes_empty_names(self):
        t = make_table()
        codes, n_levels = t.discrete_codes(())
        assert (codes == 0).all() and n_levels == 1

    def test_discrete_codes_cached(self):
        t = make_table()
        c1, _ = t.discrete_codes(("s", "y"))
        c2, _ = t.discrete_codes(("s", "y"))
        assert c1 is c2

    def test_warm_cache_returns_self(self):
        t = make_table()
        assert t.warm_cache() is t
        assert t._fingerprint is not None

    def test_new_table_gets_fresh_caches(self):
        t = make_table()
        t.warm_cache()
        t2 = t.take(np.arange(5))
        assert t2._fingerprint is None
        assert t2.fingerprint != t.fingerprint

    def test_float_column_does_not_freeze_table_storage(self):
        """Regression: caching a float64 column must freeze only what the
        table owns.  The cached array is read-only; the caller's array
        stays writeable and is never aliased."""
        source = np.array([1.0, 2.0, 3.0, 4.0])
        t = Table({"a": source})
        frozen = t.float_column("a")
        assert frozen.flags.writeable is False
        assert source.flags.writeable is True
        assert not np.shares_memory(frozen, source)
        source[0] = 9.0
        assert frozen[0] == 1.0


def observables(table: Table, name: str):
    codes, levels = table.discrete_codes(name)
    return table[name].tolist(), table.fingerprint, codes.tolist(), levels


class TestColumnContract:
    """Columns are copied once at the boundary, frozen, and shared by
    derived tables."""

    @pytest.mark.parametrize("write", ["construct", "with_column",
                                       "with_appended_rows"])
    def test_caller_array_is_never_aliased(self, write):
        source = np.array([3, 1, 4, 1, 5])
        if write == "construct":
            t = Table({"a": source})
        elif write == "with_column":
            t = Table({"b": np.zeros(5)}).with_column("a", source)
        else:
            t = Table({"a": np.array([2, 7])}).with_appended_rows(
                {"a": source})
        before = observables(t, "a")
        assert source.flags.writeable is True
        source[:] = 99
        assert observables(t, "a") == before
        # A cold rebuild from the stored values agrees: the write above
        # never reached the table.
        assert observables(Table(t.to_dict(), schema=t.schema), "a") \
            == before

    @pytest.mark.parametrize("derive, new", [
        (lambda t: t.with_column("z", np.ones(10)), "z"),
        (lambda t: t.with_column("x", np.ones(10)), "x"),
        (lambda t: t.select(["y", "s"]), None),
        (lambda t: t.drop(["x"]), None),
        (lambda t: t.with_roles({"x": Role.CANDIDATE}), None),
    ], ids=["with_column-add", "with_column-replace", "select", "drop",
            "with_roles"])
    def test_derived_tables_share_parent_arrays(self, derive, new):
        parent = make_table()
        child = derive(parent)
        carried = [name for name in child.columns if name != new]
        assert carried
        for name in carried:
            assert child[name] is parent[name]

    def test_rename_shares_parent_arrays(self):
        parent = make_table()
        child = parent.rename({"x": "feature"})
        assert child["feature"] is parent["x"]
        assert child["s"] is parent["s"] and child["y"] is parent["y"]

    def test_every_column_is_read_only(self):
        parent = make_table()
        right = Table({"s": np.array([0, 1]), "w": np.array([7.0, 8.0])})
        train, test = parent.split(0.5, seed=0)
        derived = [
            parent,
            parent.take(np.array([0, 3, 3])),
            parent.take(parent["s"] == 1),
            parent.head(4),
            parent.join(right, on="s"),
            train, test,
            parent.with_appended_rows({n: parent[n][:2]
                                       for n in parent.columns}),
            pickle.loads(pickle.dumps(parent)),
        ]
        for table in derived:
            for name in table.columns:
                column = table[name]
                assert column.flags.writeable is False
                with pytest.raises(ValueError):
                    column[0] = column[0]

    def test_float_column_of_float64_is_the_stored_array(self):
        t = make_table()
        assert t.float_column("x") is t["x"]
        assert t.float_column("s") is not t["s"]

    def test_to_dict_returns_writeable_copies(self):
        t = make_table()
        copies = t.to_dict()
        for name, values in copies.items():
            assert values.flags.writeable is True
            assert not np.shares_memory(values, t[name])


INT64 = np.iinfo(np.int64)


@st.composite
def int64_codes(draw):
    """int64 code arrays on both sides of ``_unique_inverse``'s span rule:
    narrow spans (presence table), wide spans and the int64 extremes,
    whose span overflows int64 (``np.unique``), negative, constant and
    empty arrays."""
    size = draw(st.integers(min_value=0, max_value=200))
    pool = draw(st.sampled_from(["narrow", "wide", "extremes",
                                 "constant"]))
    if pool == "extremes":
        choices = [int(INT64.min), int(INT64.min) + 1, -1, 0,
                   int(INT64.max) - 1, int(INT64.max)]
        return np.array([draw(st.sampled_from(choices))
                         for _ in range(size)], dtype=np.int64)
    low = draw(st.integers(int(INT64.min), int(INT64.max)))
    if pool == "constant":
        return np.full(size, low, dtype=np.int64)
    span = (draw(st.integers(1, max(size, 1))) if pool == "narrow"
            else draw(st.integers(size + 1, 2 ** 40)))
    high = min(low + span - 1, int(INT64.max))
    return draw(hnp.arrays(np.int64, size,
                           elements=st.integers(low, high)))


class TestUniqueInverse:
    """The sort-free densify helper is ``np.unique(return_inverse=True)``
    to the bit, on both sides of its span rule."""

    @settings(max_examples=300, deadline=None)
    @given(codes=int64_codes(), into_out=st.booleans())
    @example(codes=np.array([], dtype=np.int64), into_out=False)
    @example(codes=np.array([INT64.min, INT64.max], dtype=np.int64),
             into_out=True)
    @example(codes=np.array([-3, -1, -3, -2], dtype=np.int64),
             into_out=False)
    @example(codes=np.array([5, 9, 5, 7, 6], dtype=np.int64),
             into_out=True)  # span 5 == size: the presence table
    @example(codes=np.array([5, 10, 5, 7, 6], dtype=np.int64),
             into_out=True)  # span 6 > size: np.unique
    def test_equals_np_unique(self, codes, into_out):
        want_values, want_inverse = np.unique(codes, return_inverse=True)
        out = np.full(codes.size, -7, dtype=np.int64) if into_out else None
        values, inverse = _unique_inverse(codes, out=out)
        if into_out:
            assert inverse is out
        assert values.dtype == want_values.dtype
        assert inverse.dtype == want_inverse.dtype
        assert inverse.shape == want_inverse.shape
        np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(inverse, want_inverse)


EXACT = 2 ** 53


@st.composite
def coded_int_columns(draw):
    """Bool/integer columns of every width, with values at and past
    ``±2**53`` wherever the dtype reaches them: the edge of the integers
    float64 holds exactly."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    size = draw(st.integers(min_value=1, max_value=60))
    if dtype.kind == "b":
        return draw(hnp.arrays(dtype, size))
    info = np.iinfo(dtype)
    lo, hi = int(info.min), int(info.max)
    edges = [v for v in (-EXACT - 3, -EXACT - 2, -EXACT - 1, -EXACT,
                         -EXACT + 1, EXACT - 1, EXACT, EXACT + 1,
                         EXACT + 2, EXACT + 3, lo, hi, -1, 0, 1)
             if lo <= v <= hi]
    elements = st.one_of(st.sampled_from(edges), st.integers(lo, hi),
                         st.integers(max(lo, -4), min(hi, 4)))
    return draw(hnp.arrays(dtype, size, elements=elements))


def float_path_codes(values):
    """The discrete testers' view through floats: the reference the
    integer path must equal."""
    with np.errstate(invalid="ignore"):
        rounded = np.round(values.astype(float)).astype(np.int64)
    levels, inverse = np.unique(rounded, return_inverse=True)
    return inverse, levels.size


class TestIntegerCodes:
    """Integer and bool columns within ``±2**53`` are coded from their
    integers, every other column through ``round(float)``: the codes are
    the float path's to the bit, cold and on an appended tail."""

    @settings(max_examples=300, deadline=None)
    @given(values=coded_int_columns(), split=st.floats(0.0, 1.0))
    @example(values=np.array([EXACT, EXACT + 1, -EXACT, -EXACT - 1],
                             dtype=np.int64), split=0.5)
    @example(values=np.array([2 ** 64 - 1, EXACT, 0], dtype=np.uint64),
             split=0.4)
    @example(values=np.array([True, False, True]), split=0.7)
    def test_equals_float_path(self, values, split):
        want_codes, want_levels = float_path_codes(values)
        with np.errstate(invalid="ignore"):
            codes, n_levels = Table({"c": values}).discrete_codes("c")
            assert n_levels == want_levels
            np.testing.assert_array_equal(codes, want_codes)
            cut = int(split * values.size)
            parent = Table({"c": values[:cut]})
            parent.discrete_codes("c")
            child = parent.with_appended_rows({"c": values[cut:]})
            codes, n_levels = child.discrete_codes("c")
        assert n_levels == want_levels
        np.testing.assert_array_equal(codes, want_codes)

    @pytest.mark.parametrize("values,float_path", [
        (np.array([3, -EXACT, EXACT], dtype=np.int64), False),
        (np.array([3, EXACT + 1], dtype=np.int64), True),
        (np.array([7, 2 ** 63], dtype=np.uint64), True),
        (np.array([1, 0, 1], dtype=np.int8), False),
        (np.array([True, False]), False),
        (np.array([1.0, 2.0]), True),
    ])
    def test_float_copy_only_off_the_integer_path(self, values, float_path):
        table = Table({"c": values})
        with np.errstate(invalid="ignore"):
            table.discrete_codes("c")
        assert ("c" in table._float_cols) is float_path
