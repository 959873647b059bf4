"""Tests for the batched CI engine: batch/sequential parity and accounting."""

import numpy as np
import pytest

from repro.ci.adaptive import AdaptiveCI
from repro.ci.base import CIQuery, CITestLedger
from repro.ci.gtest import ChiSquaredCI, GTestCI
from repro.ci.rcit import RCIT
from repro.data.table import Table
from repro.exceptions import CITestError


def make_table(n=1200, seed=0):
    """Mixed discrete table with planted dependence and independence."""
    rng = np.random.default_rng(seed)
    s = (rng.random(n) < 0.5).astype(int)
    a1 = rng.integers(0, 3, n)
    a2 = rng.integers(0, 4, n)
    proxy = np.where(rng.random(n) < 0.85, s, rng.integers(0, 2, n))
    z = np.where(rng.random(n) < 0.9, s, 1 - s)
    mediated = np.where(rng.random(n) < 0.9, z, 1 - z)
    noise = rng.integers(0, 3, n)
    return Table({"s": s, "a1": a1, "a2": a2, "proxy": proxy, "z": z,
                  "mediated": mediated, "noise": noise})


QUERIES = [
    ("noise", "s", ()),
    ("proxy", "s", ()),
    ("proxy", "s", ("a1",)),
    ("mediated", "s", ("z",)),
    (("noise", "proxy"), "s", ()),
    (("mediated", "noise"), "s", ("a1", "a2")),
    ("noise", "s", ("a1", "a2", "z")),
]


class TestBatchSequentialParity:
    """`test_batch` must be bitwise-identical to sequential `test` calls."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("make_tester", [
        lambda: GTestCI(alpha=0.05),
        lambda: ChiSquaredCI(alpha=0.05),
        lambda: RCIT(alpha=0.05, seed=0),
        lambda: AdaptiveCI(alpha=0.05, seed=0),
    ], ids=["gtest", "chi2", "rcit", "adaptive"])
    def test_bitwise_identical(self, make_tester, seed):
        table = make_table(seed=seed)
        queries = [CIQuery.make(*q) for q in QUERIES]
        batch = make_tester().test_batch(table, queries)
        sequential = [make_tester().test(table, q.x, q.y, q.z)
                      for q in queries]
        for got, want in zip(batch, sequential):
            assert got.p_value == want.p_value
            assert got.statistic == want.statistic
            assert got.independent == want.independent
            assert got.method == want.method

    def test_tuple_queries_accepted(self):
        table = make_table()
        results = GTestCI().test_batch(table, [("noise", "s"),
                                               ("proxy", "s", ("a1",))])
        assert len(results) == 2
        assert all(r.query is not None for r in results)

    @staticmethod
    def _assert_table_and_matrix_paths_agree(testers):
        table = make_table()
        for tester in testers:
            for x, y, z in QUERIES:
                via_table = tester.test(table, x, y, list(z))
                x_names = [x] if isinstance(x, str) else list(x)
                p, stat = tester._test(
                    table.matrix(x_names), table.matrix([y]),
                    table.matrix(list(z)) if z else None)
                assert via_table.p_value == min(max(p, 0.0), 1.0)
                assert via_table.statistic == stat

    def test_table_and_matrix_paths_agree(self):
        """The codes-cache fast path equals the matrix-based `_test` path."""
        self._assert_table_and_matrix_paths_agree((GTestCI(), ChiSquaredCI()))

    def test_table_and_matrix_paths_agree_past_the_cell_budget(
            self, monkeypatch):
        """Past :data:`MAX_DENSE_CELLS` a lone query takes the group
        kernel's stratified branch; it must equal the table-free
        reference's stratified branch."""
        from repro.ci import gtest
        monkeypatch.setattr(gtest, "MAX_DENSE_CELLS", 1)
        self._assert_table_and_matrix_paths_agree(
            (GTestCI(), ChiSquaredCI(), GTestCI(min_expected=5.0)))


class TestLedgerBatchAccounting:
    def test_full_batch_counts_every_test(self):
        ledger = CITestLedger(GTestCI())
        results = ledger.test_batch(make_table(), [CIQuery.make(*q)
                                                   for q in QUERIES])
        assert len(results) == len(QUERIES)
        assert ledger.n_tests == len(QUERIES)
        assert ledger.cache_hits == 0

    def test_batch_matches_sequential_entries(self):
        table = make_table()
        queries = [CIQuery.make(*q) for q in QUERIES]
        batched = CITestLedger(GTestCI())
        batched.test_batch(table, queries)
        sequential = CITestLedger(GTestCI())
        for q in queries:
            sequential.test(table, q.x, q.y, q.z)
        assert [e.query for e in batched.entries] == \
               [e.query for e in sequential.entries]
        assert [e.result.p_value for e in batched.entries] == \
               [e.result.p_value for e in sequential.entries]

    def test_early_exit_stops_at_first_independent(self):
        table = make_table()
        ledger = CITestLedger(GTestCI())
        # proxy ⊥̸ s marginally; noise ⊥ s; the third query must never run.
        queries = [CIQuery.make("proxy", "s"), CIQuery.make("noise", "s"),
                   CIQuery.make("mediated", "s")]
        results = ledger.test_batch(table, queries, stop_on_independent=True)
        assert len(results) == 2
        assert not results[0].independent and results[1].independent
        assert ledger.n_tests == 2

    def test_early_exit_consumes_queries_lazily(self):
        table = make_table()
        ledger = CITestLedger(GTestCI())

        built = []

        def stream():
            for q in [CIQuery.make("noise", "s"), CIQuery.make("proxy", "s")]:
                built.append(q)
                yield q

        ledger.test_batch(table, stream(), stop_on_independent=True)
        assert len(built) == 1  # first verdict independent: stream untouched

    def test_cache_hits_not_counted(self):
        table = make_table()
        ledger = CITestLedger(GTestCI(), cache=True)
        queries = [CIQuery.make("noise", "s"), CIQuery.make("proxy", "s")]
        first = ledger.test_batch(table, queries)
        again = ledger.test_batch(table, queries)
        assert ledger.n_tests == 2
        assert ledger.cache_hits == 2
        assert [r.p_value for r in first] == [r.p_value for r in again]

    def test_cache_keyed_on_table_fingerprint(self):
        """Same query on different data must re-execute, not hit the cache."""
        ledger = CITestLedger(GTestCI(), cache=True)
        ledger.test(make_table(seed=0), "noise", "s")
        ledger.test(make_table(seed=1), "noise", "s")
        assert ledger.n_tests == 2
        assert ledger.cache_hits == 0
        # ... while an identically-rebuilt table hits.
        ledger.test(make_table(seed=0), "noise", "s")
        assert ledger.n_tests == 2
        assert ledger.cache_hits == 1

    def test_in_batch_duplicates_hit_cache(self):
        """A key-duplicate inside one cached batch executes once, like the
        sequential loop would (regression: it used to run twice).  The
        other orientation is a key of its own."""
        table = make_table()
        ledger = CITestLedger(GTestCI(), cache=True)
        queries = [CIQuery.make("noise", "s"), CIQuery.make("s", "noise"),
                   CIQuery.make("noise", "s")]
        results = ledger.test_batch(table, queries)
        assert ledger.n_tests == 2
        assert ledger.cache_hits == 1
        assert results[2] == results[0]

    def test_in_batch_duplicates_without_cache_count_twice(self):
        """Uncached semantics unchanged: duplicates execute and count."""
        ledger = CITestLedger(GTestCI())
        ledger.test_batch(make_table(), [CIQuery.make("noise", "s")] * 2)
        assert ledger.n_tests == 2

    def test_reset_clears_cache_hits(self):
        ledger = CITestLedger(GTestCI(), cache=True)
        table = make_table()
        ledger.test(table, "noise", "s")
        ledger.test(table, "noise", "s")
        assert ledger.cache_hits == 1
        ledger.reset()
        assert ledger.cache_hits == 0 and ledger.n_tests == 0


class TestDenseBudgetFallback:
    def test_high_cardinality_group_query_bounded(self, monkeypatch):
        """Past the dense-cell budget the kernel falls back to the
        per-stratum loop and still agrees with the dense path."""
        import repro.ci.gtest as gtest_mod

        table = make_table(n=800)
        query = (("mediated", "noise", "proxy"), "s", ("a1", "a2"))
        dense = GTestCI().test(table, *query)
        monkeypatch.setattr(gtest_mod, "MAX_DENSE_CELLS", 1)
        fresh = Table(table.to_dict())  # fresh caches, forced fallback
        stratified = GTestCI().test(fresh, *query)
        assert stratified.independent == dense.independent
        assert stratified.p_value == pytest.approx(dense.p_value, abs=1e-9)
        assert stratified.statistic == pytest.approx(dense.statistic,
                                                     rel=1e-9)

    def test_min_expected_guard_in_fallback(self, monkeypatch):
        import repro.ci.gtest as gtest_mod

        monkeypatch.setattr(gtest_mod, "MAX_DENSE_CELLS", 1)
        result = GTestCI(min_expected=1e6).test(make_table(), "proxy", "s",
                                                ["a1"])
        assert result.independent and result.p_value == 1.0

    def test_guard_params_are_keyword_only(self):
        """Old positional ``GTestCI(alpha, <raw stratum size>)`` calls
        must fail loudly rather than silently reinterpret the guard."""
        with pytest.raises(TypeError):
            GTestCI(0.01, 3)


class TestAdaptiveValidation:
    def test_unknown_column_raises_ci_error(self):
        """Regression: used to leak a raw KeyError from the schema lookup."""
        with pytest.raises(CITestError, match="unknown column"):
            AdaptiveCI(seed=0).test(make_table(), "ghost", "s")

    def test_overlap_checked_before_schema(self):
        with pytest.raises(CITestError, match="overlap"):
            AdaptiveCI(seed=0).test(make_table(), "noise", "noise")

    def test_batch_routes_by_kind(self):
        table = make_table().with_column(
            "cont", np.random.default_rng(0).normal(size=make_table().n_rows))
        results = AdaptiveCI(seed=0).test_batch(
            table, [("noise", "s"), ("cont", "s")])
        assert results[0].method == "adaptive->g-test"
        assert results[1].method == "adaptive->rcit"
