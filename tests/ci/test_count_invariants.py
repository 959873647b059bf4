"""Count-locked regression tests for ``n_ci_tests``.

The paper's headline efficiency claims are *counts* (Table 2, Figures
4-5), so every execution strategy must be count-preserving.  These tests
pin the counts for a fixed seeded workload to recorded constants and then
assert two invariances on top:

* **executor invariance** — serial and process execution both report
  the recorded counts and the identical selection;
* **store invariance** — a cold run against a fresh persistent store
  reports the recorded counts (attaching a cache must not change cold
  semantics), a warm rerun executes zero tests, and a warm early-exit
  stream consumes exactly the prefix the cold run did.

If a change moves the recorded constants, that is a *semantics* change to
the reproduction's cost model — it must be deliberate, explained, and the
constants re-recorded, never absorbed silently.
"""

import numpy as np
import pytest

from repro.ci.base import CIQuery, CITestLedger
from repro.ci.executor import ProcessExecutor
from repro.ci.gtest import GTestCI
from repro.ci.rcit import RCIT
from repro.ci.store import ExperimentStore, PersistentCICache
from repro.core.grpsel import GrpSel
from repro.core.online import OnlineSelector
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.seqsel import SeqSel
from repro.core.subset_search import MarginalThenFull
from repro.data.table import Table

# Recorded seed-state counts for the workload below (seed 0).  See the
# module docstring before touching these.
EXPECTED_SEQSEL_TESTS = 18
EXPECTED_GRPSEL_TESTS = 36
# min_group=2 routes small failed groups through the per-member fallback,
# which the wavefront engine fuses as sibling singleton streams; on this
# workload the executed query set coincides with min_group=1's (a failed
# pair's fallback singletons are exactly its split halves), while
# min_group=3 diverges — both are locked so the fallback path can never
# silently change cost semantics.
EXPECTED_GRPSEL_MIN_GROUP2_TESTS = 36
EXPECTED_GRPSEL_MIN_GROUP3_TESTS = 35
# Cumulative after each observed batch (the ledger spans the run).
EXPECTED_ONLINE_TESTS_CUMULATIVE = (9, 20)
EXPECTED_SELECTED = ["f1", "f2", "f4", "f5", "f7", "f8"]

N_FEATURES = 10


def make_problem(n=500, seed=0, n_features=N_FEATURES):
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, n)
    a = rng.integers(0, 3, n)
    y = (rng.random(n) < 0.35 + 0.2 * (a > 1)).astype(int)
    data = {"s": s, "a": a, "y": y}
    for i in range(n_features):
        if i % 3 == 0:
            # Planted biased features: mostly copies of S.
            data[f"f{i}"] = np.where(rng.random(n) < 0.8, s,
                                     rng.integers(0, 2, n))
        else:
            data[f"f{i}"] = rng.integers(0, 3, n)
    table = Table(data)
    return FairFeatureSelectionProblem(
        table=table, sensitive=["s"], admissible=["a"], target="y",
        candidates=[f"f{i}" for i in range(n_features)])


def executor_factories():
    return [
        pytest.param(lambda: None, id="serial"),
        pytest.param(lambda: ProcessExecutor(n_workers=2, min_batch=2),
                     id="process"),
    ]


def close(executor):
    if executor is not None and hasattr(executor, "close"):
        executor.close()


@pytest.fixture(scope="module")
def problem():
    return make_problem()


class TestRecordedCounts:
    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_seqsel(self, problem, make_executor):
        executor = make_executor()
        try:
            result = SeqSel(tester=GTestCI(),
                            subset_strategy=MarginalThenFull(),
                            executor=executor).select(problem)
        finally:
            close(executor)
        assert result.n_ci_tests == EXPECTED_SEQSEL_TESTS
        assert sorted(result.selected_set) == EXPECTED_SELECTED

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_grpsel(self, problem, make_executor):
        executor = make_executor()
        try:
            result = GrpSel(tester=GTestCI(),
                            subset_strategy=MarginalThenFull(), seed=0,
                            executor=executor).select(problem)
        finally:
            close(executor)
        assert result.n_ci_tests == EXPECTED_GRPSEL_TESTS
        assert sorted(result.selected_set) == EXPECTED_SELECTED

    @pytest.mark.parametrize("make_executor", executor_factories())
    @pytest.mark.parametrize("min_group,expected", [
        (2, EXPECTED_GRPSEL_MIN_GROUP2_TESTS),
        (3, EXPECTED_GRPSEL_MIN_GROUP3_TESTS),
    ])
    def test_grpsel_min_group_fallback(self, problem, make_executor,
                                       min_group, expected):
        """The min_group>1 per-member fallback (wave-fused singleton
        streams) is count-locked too: fusing the siblings must never
        change which queries execute."""
        executor = make_executor()
        try:
            result = GrpSel(tester=GTestCI(),
                            subset_strategy=MarginalThenFull(), seed=0,
                            min_group=min_group,
                            executor=executor).select(problem)
        finally:
            close(executor)
        assert result.n_ci_tests == expected
        assert sorted(result.selected_set) == EXPECTED_SELECTED

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_online(self, problem, make_executor):
        executor = make_executor()
        try:
            online = OnlineSelector(tester=GTestCI(),
                                    subset_strategy=MarginalThenFull(),
                                    executor=executor)
            first = online.observe(problem,
                                   [f"f{i}" for i in range(5)])
            second = online.observe(problem,
                                    [f"f{i}" for i in range(5, N_FEATURES)])
        finally:
            close(executor)
        assert first.n_ci_tests == EXPECTED_ONLINE_TESTS_CUMULATIVE[0]
        assert second.n_ci_tests == EXPECTED_ONLINE_TESTS_CUMULATIVE[1]
        assert sorted(second.selected_set) == EXPECTED_SELECTED


# Recorded seed-state counts for the drifting-stream workload of
# :func:`drift_batches` (seed 0 base + seeds 77/88 drift), under the
# default ``column`` delta-reuse policy.  Cumulative per observed batch:
#
# * batch 1 — f0-f4 arrive on the base table (identical to the first
#   online batch above: 9 tests);
# * batch 2 — no arrivals, f0's own column revised: exactly one retry
#   executes (f0), the other decided feature's verdict is reused (1 hit);
# * batch 3 — f5-f9 arrive on a row-grown table: every column changed,
#   so both held verdicts re-queue alongside the new arrivals.
EXPECTED_DRIFT_TESTS_CUMULATIVE = (9, 10, 21)
EXPECTED_DRIFT_HITS_CUMULATIVE = (0, 1, 1)


def drift_tail(n=100, seed=88, n_features=N_FEATURES):
    """Appended rows for every column of :func:`make_problem`'s table,
    drawn from the same per-column distributions."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, n)
    a = rng.integers(0, 3, n)
    y = (rng.random(n) < 0.35 + 0.2 * (a > 1)).astype(int)
    tail = {"s": s, "a": a, "y": y}
    for i in range(n_features):
        if i % 3 == 0:
            tail[f"f{i}"] = np.where(rng.random(n) < 0.8, s,
                                     rng.integers(0, 2, n))
        else:
            tail[f"f{i}"] = rng.integers(0, 3, n)
    return tail


def drift_batches():
    """The recorded drifting stream: (problem, batch) per observe call."""
    base = make_problem()
    yield base, [f"f{i}" for i in range(5)]

    rng = np.random.default_rng(77)
    n = base.table.n_rows
    s = base.table["s"]
    revised = FairFeatureSelectionProblem(
        table=base.table.with_column(
            "f0", np.where(rng.random(n) < 0.8, s,
                           rng.integers(0, 2, n))),
        sensitive=["s"], admissible=["a"], target="y",
        candidates=list(base.candidates))
    yield revised, []

    grown = FairFeatureSelectionProblem(
        table=revised.table.with_appended_rows(drift_tail()),
        sensitive=["s"], admissible=["a"], target="y",
        candidates=list(base.candidates))
    yield grown, [f"f{i}" for i in range(5, N_FEATURES)]


class TestDriftCounts:
    """Count locks for the streaming/drift path: per-column delta reuse
    re-executes exactly the evidence-required work, identically under
    every executor and store temperature, and reuse surfaces as cache
    hits — never as tests."""

    def run_stream(self, delta="column", executor=None, cache=False):
        online = OnlineSelector(tester=GTestCI(),
                                subset_strategy=MarginalThenFull(),
                                executor=executor, cache=cache,
                                delta=delta)
        results = [online.observe(problem, batch)
                   for problem, batch in drift_batches()]
        return online, results

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_drift_counts_locked_per_executor(self, make_executor):
        executor = make_executor()
        try:
            online, results = self.run_stream(executor=executor)
        finally:
            close(executor)
        assert tuple(r.n_ci_tests for r in results) == \
            EXPECTED_DRIFT_TESTS_CUMULATIVE
        assert tuple(r.cache_hits for r in results) == \
            EXPECTED_DRIFT_HITS_CUMULATIVE

    def test_delta_reuse_only_converts_tests_into_hits(self):
        """Against the from-scratch reference (``off``): identical final
        verdicts, and every test the default policy saves is accounted
        for as a reused-verdict cache hit — reuse increments hits, never
        the test count."""
        column, column_results = self.run_stream(delta="column")
        off, off_results = self.run_stream(delta="off")
        assert column.current.selected_set == off.current.selected_set
        assert set(column.current.rejected) == set(off.current.rejected)
        assert dict(column.current.reasons) == dict(off.current.reasons)
        assert off.delta_hits == 0
        assert column.n_ci_tests + column.delta_hits == off.n_ci_tests
        for col_r, off_r in zip(column_results, off_results):
            assert col_r.n_ci_tests <= off_r.n_ci_tests

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_drift_cold_then_warm_store(self, tmp_path, make_executor):
        """A warm rerun of the whole drifting stream executes zero tests:
        phase-1/phase-2 misses hit the persistent store, and the delta
        policy skips the retries it skipped cold."""
        path = tmp_path / "cache.json"
        executor = make_executor()
        try:
            cold, _ = self.run_stream(executor=executor,
                                      cache=PersistentCICache(path))
            warm, warm_results = self.run_stream(
                executor=executor, cache=PersistentCICache(path))
        finally:
            close(executor)
        assert cold.n_ci_tests == EXPECTED_DRIFT_TESTS_CUMULATIVE[-1]
        assert warm.n_ci_tests == 0
        assert warm.current.selected_set == cold.current.selected_set
        assert warm.delta_hits == cold.delta_hits


# Recorded seed-state counts for the *continuous* (RCIT-backed) workload
# below — the fused same-(Y, Z) path's cost model, locked exactly like the
# discrete constants above.  See the module docstring before touching.
EXPECTED_RCIT_SEQSEL_TESTS = 17
EXPECTED_RCIT_GRPSEL_TESTS = 26
EXPECTED_RCIT_GRPSEL_MIN_GROUP2_TESTS = 26
EXPECTED_RCIT_ONLINE_TESTS_CUMULATIVE = (9, 19)
EXPECTED_RCIT_SELECTED = ["f1", "f2", "f4", "f5", "f7"]

N_CONTINUOUS_FEATURES = 8


def make_continuous_problem(n=300, seed=0, n_features=N_CONTINUOUS_FEATURES):
    """All-continuous analogue of :func:`make_problem`: linear-Gaussian
    S -> A -> Y with planted biased (S- and Y-loaded) features."""
    rng = np.random.default_rng(seed)
    s = rng.normal(size=n)
    a = 0.8 * s + rng.normal(size=n)
    y = 0.9 * a + rng.normal(size=n)
    data = {"s": s, "a": a, "y": y}
    for i in range(n_features):
        if i % 3 == 0:
            # Planted biased features: direct S and Y components, so they
            # fail phase 1 *and* phase 2.
            data[f"f{i}"] = 0.8 * s + 0.8 * y + 0.4 * rng.normal(size=n)
        elif i % 3 == 1:
            data[f"f{i}"] = 0.9 * y + 0.3 * rng.normal(size=n)
        else:
            data[f"f{i}"] = rng.normal(size=n)
    table = Table(data)
    return FairFeatureSelectionProblem(
        table=table, sensitive=["s"], admissible=["a"], target="y",
        candidates=[f"f{i}" for i in range(n_features)])


@pytest.fixture(scope="module")
def continuous_problem():
    return make_continuous_problem()


class TestRecordedContinuousCounts:
    """The fused continuous path is count-preserving under every executor."""

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_seqsel_rcit(self, continuous_problem, make_executor):
        executor = make_executor()
        try:
            result = SeqSel(tester=RCIT(seed=0),
                            subset_strategy=MarginalThenFull(),
                            executor=executor).select(continuous_problem)
        finally:
            close(executor)
        assert result.n_ci_tests == EXPECTED_RCIT_SEQSEL_TESTS
        assert sorted(result.selected_set) == EXPECTED_RCIT_SELECTED

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_grpsel_rcit(self, continuous_problem, make_executor):
        executor = make_executor()
        try:
            result = GrpSel(tester=RCIT(seed=0),
                            subset_strategy=MarginalThenFull(), seed=0,
                            executor=executor).select(continuous_problem)
        finally:
            close(executor)
        assert result.n_ci_tests == EXPECTED_RCIT_GRPSEL_TESTS
        assert sorted(result.selected_set) == EXPECTED_RCIT_SELECTED

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_grpsel_rcit_min_group_fallback(self, continuous_problem,
                                            make_executor):
        executor = make_executor()
        try:
            result = GrpSel(tester=RCIT(seed=0),
                            subset_strategy=MarginalThenFull(), seed=0,
                            min_group=2,
                            executor=executor).select(continuous_problem)
        finally:
            close(executor)
        assert result.n_ci_tests == EXPECTED_RCIT_GRPSEL_MIN_GROUP2_TESTS
        assert sorted(result.selected_set) == EXPECTED_RCIT_SELECTED

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_online_rcit(self, continuous_problem, make_executor):
        executor = make_executor()
        try:
            online = OnlineSelector(tester=RCIT(seed=0),
                                    subset_strategy=MarginalThenFull(),
                                    executor=executor)
            first = online.observe(continuous_problem,
                                   [f"f{i}" for i in range(4)])
            second = online.observe(
                continuous_problem,
                [f"f{i}" for i in range(4, N_CONTINUOUS_FEATURES)])
        finally:
            close(executor)
        assert first.n_ci_tests == \
            EXPECTED_RCIT_ONLINE_TESTS_CUMULATIVE[0]
        assert second.n_ci_tests == \
            EXPECTED_RCIT_ONLINE_TESTS_CUMULATIVE[1]
        assert sorted(second.selected_set) == EXPECTED_RCIT_SELECTED

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_seqsel_rcit_cold_then_warm_store(self, continuous_problem,
                                              tmp_path, make_executor):
        """Fixed-seed RCIT is deterministic, so persistent-store reuse
        keeps its exact cold-run semantics: warm reruns execute nothing."""
        path = tmp_path / "cache.json"
        executor = make_executor()
        try:
            cold = SeqSel(tester=RCIT(seed=0),
                          subset_strategy=MarginalThenFull(),
                          cache=PersistentCICache(path),
                          executor=executor).select(continuous_problem)
            warm = SeqSel(tester=RCIT(seed=0),
                          subset_strategy=MarginalThenFull(),
                          cache=PersistentCICache(path),
                          executor=executor).select(continuous_problem)
        finally:
            close(executor)
        assert cold.n_ci_tests == EXPECTED_RCIT_SEQSEL_TESTS
        assert warm.n_ci_tests == 0
        assert warm.selected_set == cold.selected_set


class TestStoreColdAndWarm:
    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_seqsel_cold_then_warm(self, problem, tmp_path, make_executor):
        path = tmp_path / "cache.json"
        executor = make_executor()
        try:
            cold = SeqSel(tester=GTestCI(),
                          subset_strategy=MarginalThenFull(),
                          cache=PersistentCICache(path),
                          executor=executor).select(problem)
            warm = SeqSel(tester=GTestCI(),
                          subset_strategy=MarginalThenFull(),
                          cache=PersistentCICache(path),
                          executor=executor).select(problem)
        finally:
            close(executor)
        assert cold.n_ci_tests == EXPECTED_SEQSEL_TESTS
        assert warm.n_ci_tests == 0
        assert warm.selected_set == cold.selected_set

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_grpsel_cold_then_warm(self, problem, tmp_path, make_executor):
        path = tmp_path / "cache.json"
        executor = make_executor()
        try:
            cold = GrpSel(tester=GTestCI(),
                          subset_strategy=MarginalThenFull(), seed=0,
                          cache=PersistentCICache(path),
                          executor=executor).select(problem)
            warm = GrpSel(tester=GTestCI(),
                          subset_strategy=MarginalThenFull(), seed=0,
                          cache=PersistentCICache(path),
                          executor=executor).select(problem)
        finally:
            close(executor)
        assert cold.n_ci_tests == EXPECTED_GRPSEL_TESTS
        assert warm.n_ci_tests == 0
        assert warm.selected_set == cold.selected_set

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_online_cold_then_warm(self, problem, tmp_path, make_executor):
        path = tmp_path / "cache.json"
        batches = ([f"f{i}" for i in range(5)],
                   [f"f{i}" for i in range(5, N_FEATURES)])
        executor = make_executor()
        try:
            cold = OnlineSelector(tester=GTestCI(),
                                  subset_strategy=MarginalThenFull(),
                                  cache=PersistentCICache(path),
                                  executor=executor)
            for batch in batches:
                cold.observe(problem, batch)
            warm = OnlineSelector(tester=GTestCI(),
                                  subset_strategy=MarginalThenFull(),
                                  cache=PersistentCICache(path),
                                  executor=executor)
            for batch in batches:
                warm.observe(problem, batch)
        finally:
            close(executor)
        assert cold.n_ci_tests == EXPECTED_ONLINE_TESTS_CUMULATIVE[-1]
        assert warm.n_ci_tests == 0
        assert warm.current.selected_set == cold.current.selected_set

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_warm_early_exit_consumes_exactly_the_cold_prefix(
            self, problem, tmp_path, make_executor):
        """The lazy-stream invariant, per executor: a warm early-exit run
        pulls exactly as many queries from the stream as the cold run
        executed — never one more."""
        path = tmp_path / "cache.json"
        table = problem.table
        queries = [CIQuery.make(f"f{i}", "y", ("a",))
                   for i in range(N_FEATURES)]
        executor = make_executor()
        try:
            cold = CITestLedger(GTestCI(), cache=PersistentCICache(path),
                                executor=executor)
            cold_results = cold.test_batch(table, iter(queries),
                                           stop_on_independent=True)
            cold.flush_cache()
            assert 0 < len(cold_results) <= N_FEATURES

            consumed = []

            def stream():
                for query in queries:
                    consumed.append(query)
                    yield query

            warm = CITestLedger(GTestCI(), cache=PersistentCICache(path),
                                executor=executor)
            warm_results = warm.test_batch(table, stream(),
                                           stop_on_independent=True)
        finally:
            close(executor)
        assert warm.n_tests == 0
        assert warm.cache_hits == len(cold_results)
        assert len(consumed) == len(cold_results)
        assert [r.p_value for r in warm_results] == \
               [r.p_value for r in cold_results]


class TestExperimentStoreCounts:
    def test_memoised_selection_reports_cold_counts_without_executing(
            self, problem, tmp_path, monkeypatch):
        """A selection-memo hit must report the recorded cold-run count
        while running no CI test at all (the Table 2 warm-rerun shape)."""
        store = ExperimentStore(tmp_path / "suite")
        selector = SeqSel(tester=GTestCI(),
                          subset_strategy=MarginalThenFull())
        cold = store.cached_select(selector, problem)
        assert cold.n_ci_tests == EXPECTED_SEQSEL_TESTS
        store.save()

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a CI test executed on a warm memo hit")

        monkeypatch.setattr(GTestCI, "_test", forbidden)
        reopened = ExperimentStore(tmp_path / "suite")
        warm = reopened.cached_select(
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            problem)
        assert reopened.selection_hits == 1
        assert warm.n_ci_tests == EXPECTED_SEQSEL_TESTS  # recorded summary
        assert warm.selected_set == cold.selected_set
        assert warm.reasons == cold.reasons
