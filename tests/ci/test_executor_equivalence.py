"""Property-based equivalence of the batch executors.

The ROADMAP's contract is that executors are *mechanism only*: for any
table and query batch, routing through :class:`SerialExecutor` or
:class:`ProcessExecutor` returns bitwise identical ``CIResult`` lists and
never changes the ledger's ``n_tests`` or ``cache_hits``.  This file
machine-checks that claim on random workloads (hypothesis), including
in-batch duplicates and memoisation.

Process executors here start workers the interpreter's way (fork on
Linux, where pool start-up per random example stays cheap), while one
dedicated test sets the global start method to ``spawn`` and pushes a
batch through a real spawn pool to pin the spawn-safe serialization
contract itself.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ci.base import CIQuery, CIResult, CITestLedger, CITester
from repro.ci.executor import ProcessExecutor, SerialExecutor
from repro.ci.gtest import GTestCI
from repro.data.table import Table
from repro.exceptions import CITestError

Z_CHOICES = [(), ("a",), ("s",), ("a", "s")]


def build_table(seed: int, n_rows: int, n_features: int) -> Table:
    rng = np.random.default_rng(seed)
    data = {
        "s": rng.integers(0, 2, n_rows),
        "y": rng.integers(0, 2, n_rows),
        "a": rng.integers(0, 3, n_rows),
    }
    for i in range(n_features):
        data[f"f{i}"] = rng.integers(0, 2 + i % 3, n_rows)
    return Table(data)


@st.composite
def workloads(draw):
    """A random (table, query batch) pair, possibly with duplicates."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_rows = draw(st.integers(min_value=30, max_value=120))
    n_features = draw(st.integers(min_value=3, max_value=8))
    table = build_table(seed, n_rows, n_features)
    z_picks = draw(st.lists(st.sampled_from(Z_CHOICES),
                            min_size=n_features, max_size=n_features))
    queries = [CIQuery.make(f"f{i}", "y", z)
               for i, z in enumerate(z_picks)]
    # In-batch duplicates exercise the ledger's duplicate-vs-miss split.
    n_dupes = draw(st.integers(min_value=0, max_value=3))
    for offset in range(n_dupes):
        queries.append(queries[offset % len(queries)])
    return table, queries


def pooled_executors():
    """Fresh pooled executors, small-batch thresholds forced down so the
    pooled code path actually runs on hypothesis-sized batches."""
    return [
        ProcessExecutor(n_workers=2, min_batch=2),
    ]


def result_tuple(result):
    return (result.independent, result.p_value, result.statistic,
            result.query, result.method)


class TestExecutorEquivalence:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload=workloads())
    def test_raw_executor_results_bitwise_identical(self, workload):
        table, queries = workload
        baseline = [result_tuple(r)
                    for r in SerialExecutor().run(GTestCI(), table, queries)]
        for executor in pooled_executors():
            try:
                got = [result_tuple(r)
                       for r in executor.run(GTestCI(), table, queries)]
            finally:
                if hasattr(executor, "close"):
                    executor.close()
            assert got == baseline, executor

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload=workloads(), cache=st.booleans())
    def test_ledger_counts_executor_invariant(self, workload, cache):
        """`n_tests` and `cache_hits` never depend on the executor."""
        table, queries = workload
        serial = CITestLedger(GTestCI(), cache=cache)
        baseline = [result_tuple(r)
                    for r in serial.test_batch(table, queries)]
        for executor in pooled_executors():
            ledger = CITestLedger(GTestCI(), cache=cache, executor=executor)
            try:
                got = [result_tuple(r) for r in ledger.test_batch(table, queries)]
            finally:
                if hasattr(executor, "close"):
                    executor.close()
            assert got == baseline
            assert ledger.n_tests == serial.n_tests
            assert ledger.cache_hits == serial.cache_hits
            assert [e.query for e in ledger.entries] == \
                   [e.query for e in serial.entries]

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload=workloads())
    def test_early_exit_stream_identical(self, workload):
        """Early-exit streams are consumed lazily in the calling process,
        so the evaluated prefix is executor-invariant too."""
        table, queries = workload
        serial = CITestLedger(GTestCI())
        baseline = serial.test_batch(table, queries,
                                     stop_on_independent=True)
        for executor in pooled_executors():
            ledger = CITestLedger(GTestCI(), executor=executor)
            try:
                got = ledger.test_batch(table, queries,
                                        stop_on_independent=True)
            finally:
                if hasattr(executor, "close"):
                    executor.close()
            assert [result_tuple(r) for r in got] == \
                   [result_tuple(r) for r in baseline]
            assert ledger.n_tests == serial.n_tests


class TestSpawnSafety:
    def test_spawn_pool_matches_serial(self, start_method):
        """The serialization contract proper: tester + cache-stripped table
        cross a *spawn* boundary and come back bitwise identical."""
        assert start_method == "spawn"
        table = build_table(seed=7, n_rows=200, n_features=6)
        table.warm_cache()
        queries = [CIQuery.make(f"f{i}", "y", Z_CHOICES[i % 4])
                   for i in range(6)]
        baseline = [result_tuple(r)
                    for r in SerialExecutor().run(GTestCI(), table, queries)]
        with ProcessExecutor(n_workers=2, min_batch=2) as executor:
            got = [result_tuple(r)
                   for r in executor.run(GTestCI(), table, queries)]
        assert got == baseline

    def test_table_pickles_without_lazy_caches(self):
        import pickle
        table = build_table(seed=3, n_rows=50, n_features=4)
        fingerprint = table.fingerprint
        table.warm_cache()
        clone = pickle.loads(pickle.dumps(table))
        assert clone._float_cols == {} and clone._codes_cache == {}
        assert clone.fingerprint == fingerprint
        assert clone.equals(table)
        # Rebuilt codes match the originals exactly.
        codes, levels = table.discrete_codes(("f0", "f1"))
        clone_codes, clone_levels = clone.discrete_codes(("f0", "f1"))
        assert levels == clone_levels
        assert np.array_equal(codes, clone_codes)


class TestPoolReuse:
    def test_pool_persists_across_same_pair_calls(self):
        table = build_table(seed=1, n_rows=80, n_features=5)
        queries = [CIQuery.make(f"f{i}", "y", ("a",)) for i in range(5)]
        with ProcessExecutor(n_workers=2, min_batch=2) as executor:
            executor.run(GTestCI(), table, queries)
            first_pool = executor._pool
            executor.run(GTestCI(), table, queries)
            assert executor._pool is first_pool
            # A different table forces a fresh pool (workers hold the old one).
            other = build_table(seed=2, n_rows=80, n_features=5)
            executor.run(GTestCI(), other, queries)
            assert executor._pool is not first_pool


class TestPoolKeyStability:
    def test_parent_side_memo_state_does_not_respawn_the_pool(self):
        """Regression: the pool-reuse key was pickle.dumps(tester), which
        drifts with harmless parent-side memo state (OracleCI's
        reachability cache) — respawning the pool per burst and defeating
        the documented start-up amortisation."""
        table = build_table(seed=5, n_rows=80, n_features=5)
        queries = [CIQuery.make(f"f{i}", "y", ("a",)) for i in range(5)]
        with ProcessExecutor(n_workers=2, min_batch=2) as executor:
            tester = GTestCI()
            executor.run(tester, table, queries)
            pool = executor._pool
            tester.some_memo = {"warm": True}  # parent-side drift
            executor.run(tester, table, queries)
            assert executor._pool is pool
            # A same-configuration sibling instance also reuses the pool.
            executor.run(GTestCI(), table, queries)
            assert executor._pool is pool
            # A differently-configured tester does not.
            executor.run(GTestCI(alpha=0.05), table, queries)
            assert executor._pool is not pool


class ExplodingTester(CITester):
    """Raises on one specific X column; fine everywhere else.

    Module-level so (fork) worker processes unpickle it by reference.
    """

    method = "exploding"

    def __init__(self, poison: str = "f3", alpha: float = 0.01) -> None:
        super().__init__(alpha=alpha)
        self.poison = poison

    def test(self, table, x, y, z=()):
        query = CIQuery.make(x, y, z)
        if self.poison in query.x:
            raise ValueError(f"exploding on {self.poison}")
        return CIResult(independent=True, p_value=1.0, statistic=0.0,
                        query=query, method=self.method)

    def test_batch(self, table, queries):
        return [self.test(table, q.x, q.y, q.z) for q in queries]


class BatchOnlyFailingTester(CITester):
    """Fails whole batches but never a single replayed query — the shape
    of a batch-level resource error, which attribution cannot pin."""

    method = "batch-only-failure"

    def test(self, table, x, y, z=()):
        return CIResult(independent=True, p_value=1.0, statistic=0.0,
                        query=CIQuery.make(x, y, z), method=self.method)

    def test_batch(self, table, queries):
        queries = list(queries)
        if len(queries) > 1:
            raise RuntimeError("batch-only resource failure")
        return [self.test(table, q.x, q.y, q.z) for q in queries]


class TestProcessBoundaryErrorReplay:
    """The error-replay contract *across the process boundary*: the
    ``error.query`` attribution computed by ``_find_offending_query``
    inside a worker must survive the pickle trip back to the parent, and
    a batch-only failure (no single query reproduces it) must cross back
    as ``CITestError`` with ``query=None`` — never as a bare worker
    exception."""

    def _workload(self):
        table = build_table(seed=11, n_rows=120, n_features=6)
        queries = [CIQuery.make(f"f{i}", "y", ("a",)) for i in range(6)]
        return table, queries

    def test_attribution_survives_process_pickle_trip(self):
        table, queries = self._workload()
        with ProcessExecutor(n_workers=2, min_batch=2) as executor:
            with pytest.raises(CITestError) as excinfo:
                executor.run(ExplodingTester(poison="f3"), table, queries)
        assert excinfo.value.query == CIQuery.make("f3", "y", ("a",))
        assert "exploding" in str(excinfo.value.__cause__ or excinfo.value)

    def test_batch_only_failure_crosses_back_with_query_none(self):
        table, queries = self._workload()
        with ProcessExecutor(n_workers=2, min_batch=2) as executor:
            with pytest.raises(CITestError) as excinfo:
                executor.run(BatchOnlyFailingTester(), table, queries)
        assert excinfo.value.query is None
