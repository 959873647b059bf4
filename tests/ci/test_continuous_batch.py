"""Equivalence and invariant suite for the fused continuous CI engine.

The PR-4 contract, machine-checked:

* fused RCIT/RIT/KCIT/FisherZ batches are **bitwise identical** to
  sequential ``test`` calls (hypothesis, over random tables and random
  same-``(Y, Z)``-heavy bursts);
* fusion never changes a ledger's ``n_tests``/``cache_hits``, and
  early-exit prefixes stay exactly sequential under every executor;
* results are invariant under arbitrary batch sharding boundaries (the
  executor contract for continuous groups);
* the Table's standardized-block/bandwidth caches behave as values
  (read-only, seed-keyed, dropped on pickling);
* RIT verdicts never alias RCIT's conditional verdicts in a shared
  persistent store;
* the KCIT micro-fixes (O(n^2) centring, elementwise traces) match the
  textbook formulas they replaced.
"""

import pickle

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ci.adaptive import AdaptiveCI
from repro.ci.base import CIQuery, CITestLedger
from repro.ci.executor import ProcessExecutor, SerialExecutor
from repro.ci.fisher_z import FisherZCI
from repro.ci.kcit import KCIT, _center, rbf_gram
from repro.ci.rcit import RCIT, RIT
from repro.ci.store import PersistentCICache
from repro.data.table import Table
from repro.rng import value_seed

Z_CHOICES = [(), ("z1",), ("z2",), ("z1", "z2")]


def build_table(seed: int, n_rows: int, n_features: int) -> Table:
    rng = np.random.default_rng(seed)
    z1 = rng.normal(size=n_rows)
    z2 = rng.normal(size=n_rows)
    data = {"y": 0.6 * z1 + rng.normal(size=n_rows), "z1": z1, "z2": z2}
    for i in range(n_features):
        noise = rng.normal(size=n_rows)
        data[f"f{i}"] = noise + (0.7 * z1 if i % 3 == 0 else 0.0)
    return Table(data)


@st.composite
def workloads(draw):
    """A random (table, burst) pair: mostly shared-(Y, Z), some strays."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    n_rows = draw(st.integers(min_value=40, max_value=150))
    n_features = draw(st.integers(min_value=3, max_value=7))
    table = build_table(seed, n_rows, n_features)
    shared_z = draw(st.sampled_from(Z_CHOICES))
    queries = [CIQuery.make(f"f{i}", "y", shared_z)
               for i in range(n_features)]
    # A group query (multi-column X) in the same (Y, Z) group.
    if n_features >= 2:
        queries.append(CIQuery.make(("f0", "f1"), "y", shared_z))
    # Strays: a different conditioning set and a marginal query.
    queries.append(CIQuery.make("f0", "y",
                                draw(st.sampled_from(Z_CHOICES))))
    queries.append(CIQuery.make("f1", "y", ()))
    return table, queries


def result_tuple(result):
    return (result.independent, result.p_value, result.statistic,
            result.query, result.method)


def continuous_testers():
    return [RCIT(seed=7), RIT(seed=7), FisherZCI(),
            KCIT(seed=0, max_samples=120)]


class TestFusedEquivalence:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload=workloads())
    def test_fused_batch_bitwise_identical_to_sequential(self, workload):
        table, queries = workload
        for tester in continuous_testers():
            sequential = [result_tuple(tester.test(table, q.x, q.y, q.z))
                          for q in queries]
            fused = [result_tuple(r)
                     for r in tester.test_batch(table, queries)]
            assert fused == sequential, tester.method

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload=workloads(),
           boundary=st.integers(min_value=1, max_value=6))
    def test_sharding_boundaries_do_not_change_results(self, workload,
                                                       boundary):
        """Splitting a burst at any boundary (what executor shards do)
        yields the same results as the unsplit batch."""
        table, queries = workload
        for tester in (RCIT(seed=7), FisherZCI()):
            whole = [result_tuple(r)
                     for r in tester.test_batch(table, queries)]
            cut = min(boundary, len(queries))
            split = [result_tuple(r)
                     for part in (queries[:cut], queries[cut:]) if part
                     for r in tester.test_batch(table, part)]
            assert split == whole, tester.method

    def test_rit_fused_grouping_drops_z(self):
        """RIT groups on the *effective* (empty) conditioning set: queries
        with different Z fuse into one group and still match sequential
        evaluation (which equals marginal RCIT)."""
        table = build_table(seed=3, n_rows=120, n_features=4)
        rit = RIT(seed=11)
        queries = [CIQuery.make(f"f{i}", "y", Z_CHOICES[i % 4])
                   for i in range(4)]
        fused = rit.test_batch(table, queries)
        for query, result in zip(queries, fused):
            assert result.p_value == rit.test(
                table, query.x, query.y, query.z).p_value
            marginal = RCIT(seed=11).test(table, query.x, query.y, ())
            assert result.p_value == pytest.approx(marginal.p_value)

    def test_generator_seed_is_one_value_seed(self):
        """A live-Generator seed is drawn down to one int at construction,
        so the tester fuses exactly like an RCIT built with that int."""
        table = build_table(seed=5, n_rows=80, n_features=4)
        queries = [CIQuery.make(f"f{i}", "y", ("z1",)) for i in range(4)]
        tester = RCIT(seed=np.random.default_rng(0))
        as_int = RCIT(seed=value_seed(np.random.default_rng(0)))
        assert tester.cache_token() == as_int.cache_token()
        batch = tester.test_batch(table, queries)
        sequential = [tester.test(table, q.x, q.y, q.z) for q in queries]
        assert [r.p_value for r in batch] == \
               [r.p_value for r in sequential] == \
               [r.p_value for r in as_int.test_batch(table, queries)]


class TestLedgerAndExecutorInvariants:
    def executors(self):
        return [SerialExecutor(),
                ProcessExecutor(n_workers=2, min_batch=2)]

    def test_counts_and_results_executor_invariant(self):
        table = build_table(seed=9, n_rows=100, n_features=5)
        queries = [CIQuery.make(f"f{i}", "y", ("z1", "z2"))
                   for i in range(5)]
        queries.append(queries[0])  # in-batch duplicate
        baseline_ledger = CITestLedger(RCIT(seed=2), cache=True)
        baseline = [result_tuple(r)
                    for r in baseline_ledger.test_batch(table, queries)]
        for executor in self.executors():
            ledger = CITestLedger(RCIT(seed=2), cache=True,
                                  executor=executor)
            try:
                got = [result_tuple(r)
                       for r in ledger.test_batch(table, queries)]
            finally:
                if hasattr(executor, "close"):
                    executor.close()
            assert got == baseline, executor
            assert ledger.n_tests == baseline_ledger.n_tests
            assert ledger.cache_hits == baseline_ledger.cache_hits

    def test_early_exit_prefix_exactly_sequential(self):
        table = build_table(seed=13, n_rows=90, n_features=6)
        queries = [CIQuery.make(f"f{i}", "y", ("z1",)) for i in range(6)]
        serial = CITestLedger(RCIT(seed=4))
        baseline = serial.test_batch(table, queries,
                                     stop_on_independent=True)
        assert 0 < len(baseline) <= len(queries)
        for executor in self.executors():
            ledger = CITestLedger(RCIT(seed=4), executor=executor)
            try:
                got = ledger.test_batch(table, queries,
                                        stop_on_independent=True)
            finally:
                if hasattr(executor, "close"):
                    executor.close()
            assert [result_tuple(r) for r in got] == \
                   [result_tuple(r) for r in baseline]
            assert ledger.n_tests == serial.n_tests

    def test_fusion_never_inflates_n_tests(self):
        """The ledger decides what executes; fusion is mechanism below it."""
        table = build_table(seed=21, n_rows=80, n_features=5)
        queries = [CIQuery.make(f"f{i}", "y", ("z1",)) for i in range(5)]
        ledger = CITestLedger(RCIT(seed=1), cache=True)
        ledger.test_batch(table, queries)
        assert ledger.n_tests == len(queries)
        assert ledger.cache_hits == 0
        ledger.test_batch(table, queries)  # warm rerun: all hits
        assert ledger.n_tests == len(queries)
        assert ledger.cache_hits == len(queries)

    def test_adaptive_routes_continuous_subbatch_through_fusion(self):
        rng = np.random.default_rng(8)
        n = 90
        table = Table({
            "y": rng.integers(0, 2, n),
            "d": rng.integers(0, 3, n),
            "c1": rng.normal(size=n),
            "c2": rng.normal(size=n),
            "z": rng.normal(size=n),
        })
        tester = AdaptiveCI(seed=6)
        queries = [CIQuery.make("c1", "y", ("z",)),
                   CIQuery.make("c2", "y", ("z",)),
                   CIQuery.make("d", "y", ())]
        batch = tester.test_batch(table, queries)
        sequential = [tester.test(table, q.x, q.y, q.z) for q in queries]
        assert [result_tuple(r) for r in batch] == \
               [result_tuple(r) for r in sequential]
        assert batch[0].method == "adaptive->rcit"
        assert batch[2].method == "adaptive->g-test"


class TestStoreIsolation:
    def test_rit_never_aliases_rcit_conditional_verdicts(self, tmp_path):
        """Regression (PR-4 satellite): a shared persistent store must
        keep RIT's effective-Z-dropped verdicts apart from RCIT's
        conditional ones for the byte-identical query."""
        table = build_table(seed=17, n_rows=100, n_features=3)
        path = tmp_path / "cache.json"
        query = CIQuery.make("f0", "y", ("z1",))

        rcit_ledger = CITestLedger(RCIT(seed=5),
                                   cache=PersistentCICache(path))
        conditional = rcit_ledger.test(table, query.x, query.y, query.z)
        rcit_ledger.flush_cache()

        rit_ledger = CITestLedger(RIT(seed=5),
                                  cache=PersistentCICache(path))
        unconditional = rit_ledger.test(table, query.x, query.y, query.z)
        rit_ledger.flush_cache()
        # The store served nothing across testers...
        assert rit_ledger.cache_hits == 0
        assert rit_ledger.n_tests == 1
        # ...and the verdicts genuinely differ in provenance: RIT matches
        # the marginal test, not RCIT's conditional answer.
        marginal = RCIT(seed=5).test(table, query.x, query.y, ())
        assert unconditional.p_value == pytest.approx(marginal.p_value)
        assert unconditional.p_value != conditional.p_value

        # Cache tokens differ even ignoring the method name.
        assert RIT(seed=5).cache_token() != RCIT(seed=5).cache_token()


class TestTableContinuousCaches:
    def test_standardized_block_cached_and_read_only(self):
        table = build_table(seed=1, n_rows=50, n_features=3)
        block = table.standardized_block(("f0", "z1"))
        assert block.shape == (50, 2)
        assert not block.flags.writeable
        assert table.standardized_block(("f0", "z1")) is block
        # Zero mean / unit variance (constant columns aside).
        np.testing.assert_allclose(block.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(block.std(axis=0), 1.0, atol=1e-12)

    def test_median_bandwidth_keyed_on_subsample_seed(self):
        rng = np.random.default_rng(2)
        table = Table({"a": rng.normal(size=900), "b": rng.normal(size=900)})
        small = table.median_bandwidth(("a", "b"), seed_key=(3, 1),
                                       max_points=200)
        again = table.median_bandwidth(("a", "b"), seed_key=(3, 1),
                                       max_points=200)
        other_seed = table.median_bandwidth(("a", "b"), seed_key=(4, 1),
                                            max_points=200)
        assert small == again
        # Different derivations subsample differently (distinct cache
        # entries; values may rarely coincide, the draw must not).
        assert (3, 1) != (4, 1)
        assert isinstance(other_seed, float)
        full = table.median_bandwidth(("a", "b"))
        assert small == pytest.approx(full, rel=0.3)

    def test_pickling_drops_continuous_caches(self):
        table = build_table(seed=4, n_rows=60, n_features=3).warm_cache()
        assert table._std_blocks  # warm_cache standardized the columns
        clone = pickle.loads(pickle.dumps(table))
        assert clone._std_blocks == {} and clone._bandwidth_cache == {}
        rebuilt = clone.standardized_block(("f0",))
        np.testing.assert_array_equal(rebuilt,
                                      table.standardized_block(("f0",)))


class TestKCITMicroFixParity:
    """The O(n^2) centring and elementwise traces match the old formulas."""

    def test_center_matches_projection_matmuls(self):
        rng = np.random.default_rng(6)
        gram = rbf_gram(rng.normal(size=(80, 3)), 1.3)
        n = gram.shape[0]
        h = np.eye(n) - np.full((n, n), 1.0 / n)
        np.testing.assert_allclose(_center(gram), h @ gram @ h,
                                   atol=1e-12)

    def test_elementwise_trace_matches_matmul_trace(self):
        rng = np.random.default_rng(7)
        k_x = _center(rbf_gram(rng.normal(size=(60, 2)), 1.0))
        k_y = _center(rbf_gram(rng.normal(size=(60, 2)), 0.8))
        assert np.sum(k_x * k_y.T) == pytest.approx(
            np.trace(k_x @ k_y), rel=1e-12)
        assert np.sum(k_x * k_x.T) == pytest.approx(
            np.trace(k_x @ k_x), rel=1e-12)

    def test_kcit_group_sharing_subsampled(self):
        """With a value seed the subsample draw is shared per group and
        fused results stay identical to sequential."""
        table = build_table(seed=19, n_rows=300, n_features=4)
        tester = KCIT(seed=3, max_samples=120)
        queries = [CIQuery.make(f"f{i}", "y", ("z1",)) for i in range(4)]
        fused = tester.test_batch(table, queries)
        sequential = [tester.test(table, q.x, q.y, q.z) for q in queries]
        assert [result_tuple(r) for r in fused] == \
               [result_tuple(r) for r in sequential]


class TestFisherZDegenerateDesign:
    def test_rank_deficient_design_falls_back_to_lstsq(self):
        """A constant Z column duplicates the intercept; the QR basis is
        refused and both paths agree through the lstsq fallback."""
        rng = np.random.default_rng(23)
        n = 120
        table = Table({
            "y": rng.normal(size=n),
            "x1": rng.normal(size=n),
            "x2": rng.normal(size=n),
            "const": np.ones(n),
            "z": rng.normal(size=n),
        })
        queries = [CIQuery.make("x1", "y", ("const", "z")),
                   CIQuery.make("x2", "y", ("const", "z"))]
        tester = FisherZCI()
        fused = tester.test_batch(table, queries)
        sequential = [tester.test(table, q.x, q.y, q.z) for q in queries]
        assert [result_tuple(r) for r in fused] == \
               [result_tuple(r) for r in sequential]
        # And the degenerate conditioning yields the same partial
        # correlation as conditioning on z alone (the statistic only
        # differs through the |Z|-dependent degrees of freedom).
        clean = tester.test(table, "x1", "y", ("z",))
        n = table.n_rows
        assert fused[0].statistic / np.sqrt(n - 2 - 3) == pytest.approx(
            clean.statistic / np.sqrt(n - 1 - 3), rel=1e-9)
