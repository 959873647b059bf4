"""Property-based equivalence of the wavefront engine and the sequential
selectors it replaced.

The wavefront contract (ROADMAP "Wavefront engine (PR 5)"): rank-
synchronized wave scheduling is *pure mechanism* — for any problem,
subset strategy, executor, and cache state, the engine-backed selectors
produce bitwise the results of the per-candidate sequential
implementation (verdict sets, C1/C2 ordering, reasons, ``n_ci_tests``,
``cache_hits``), because a stream reaches rank ``k`` iff its ranks
``0..k-1`` were all dependent and group refinement consults only the
group's own verdicts.

The sequential reference here *is* the pre-wavefront implementation,
expressed through the engine's seams: ``SequentialEngine`` overrides the
two wave primitives with the old per-candidate early-exit loop and the
old DFS recursion, so any scheduling bug shows up as a diff against it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.causal.dag import CausalDAG
from repro.ci.base import CIQuery, CITestLedger
from repro.ci.executor import ProcessExecutor, SerialExecutor
from repro.ci.gtest import GTestCI
from repro.ci.oracle import OracleCI
from repro.ci.store import ExperimentStore
from repro.core.engine import WavefrontEngine
from repro.core.grpsel import GrpSel
from repro.core.online import OnlineSelector
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.seqsel import SeqSel
from repro.core.subset_search import (ExhaustiveSubsets, FullSetOnly,
                                      GreedySubsets, MarginalThenFull)
from repro.data.table import Table

STRATEGIES = [ExhaustiveSubsets, FullSetOnly, MarginalThenFull, GreedySubsets]


# -- the sequential reference (the pre-wavefront implementation) -------------

class SequentialEngine(WavefrontEngine):
    """The engine's primitives, de-scheduled back to the sequential code:
    one private early-exit stream per unit, DFS recursion for groups."""

    def phase1_admitted(self, ledger, problem, units):
        flags = []
        for unit in units:
            stream = self.subset_strategy.phase1_queries(
                unit, problem.sensitive, problem.admissible)
            prefix = ledger.test_batch(problem.table, stream,
                                       stop_on_independent=True)
            flags.append(bool(prefix) and prefix[-1].independent)
        return flags

    def refine_admitted(self, ledger, problem, groups, streams_for, refine):
        admitted = []

        def visit(group):
            prefix = ledger.test_batch(problem.table,
                                       streams_for([group])[0],
                                       stop_on_independent=True)
            if prefix and prefix[-1].independent:
                admitted.extend(group)
                return
            for sub in refine(group):
                if sub:
                    visit(list(sub))

        for group in groups:
            if group:
                visit(list(group))
        return admitted


class SequentialSeqSel(SeqSel):
    def _engine(self):
        return SequentialEngine(self.tester, self.subset_strategy,
                                cache=self.cache, executor=self.executor)


class SequentialGrpSel(GrpSel):
    def _engine(self):
        return SequentialEngine(self.tester, self.subset_strategy,
                                cache=self.cache, executor=self.executor)


class SequentialOnline(OnlineSelector):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._engine = SequentialEngine(self.tester, self.subset_strategy,
                                        cache=self._engine.cache,
                                        executor=self._engine.executor)
        self._ledger = self._engine.open_ledger()


def build_problem(seed, n_rows, n_features, n_admissible):
    rng = np.random.default_rng(seed)
    data = {
        "s": rng.integers(0, 2, n_rows),
        "y": rng.integers(0, 2, n_rows),
    }
    admissible = []
    for j in range(n_admissible):
        name = f"a{j}"
        admissible.append(name)
        data[name] = rng.integers(0, 3, n_rows)
    for i in range(n_features):
        if i % 3 == 0:
            data[f"f{i}"] = np.where(rng.random(n_rows) < 0.8, data["s"],
                                     rng.integers(0, 2, n_rows))
        else:
            data[f"f{i}"] = rng.integers(0, 3, n_rows)
    return FairFeatureSelectionProblem(
        table=Table(data), sensitive=["s"], admissible=admissible,
        target="y", candidates=[f"f{i}" for i in range(n_features)])


def snapshot(result):
    """Everything the equivalence claim covers (not wall-clock time)."""
    return (result.algorithm, result.c1, result.c2, result.rejected,
            {k: v.name for k, v in result.reasons.items()},
            result.n_ci_tests, result.cache_hits)


@st.composite
def problems(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_rows = draw(st.integers(min_value=30, max_value=120))
    n_features = draw(st.integers(min_value=1, max_value=9))
    n_admissible = draw(st.integers(min_value=0, max_value=3))
    return build_problem(seed, n_rows, n_features, n_admissible)


class TestWavefrontMatchesSequential:
    """Hypothesis: wavefront == sequential, across all four strategies."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(problem=problems(), strategy_index=st.integers(0, 3),
           cache=st.booleans())
    def test_seqsel(self, problem, strategy_index, cache):
        strategy = STRATEGIES[strategy_index]()
        want = SequentialSeqSel(tester=GTestCI(), subset_strategy=strategy,
                                cache=cache).select(problem)
        got = SeqSel(tester=GTestCI(), subset_strategy=strategy,
                     cache=cache).select(problem)
        assert snapshot(got) == snapshot(want)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(problem=problems(), strategy_index=st.integers(0, 3),
           cache=st.booleans(), shuffle=st.booleans(),
           min_group=st.integers(1, 4), seed=st.integers(0, 5))
    def test_grpsel(self, problem, strategy_index, cache, shuffle,
                    min_group, seed):
        strategy = STRATEGIES[strategy_index]()
        config = dict(subset_strategy=strategy, cache=cache, shuffle=shuffle,
                      min_group=min_group, seed=seed)
        want = SequentialGrpSel(tester=GTestCI(), **config).select(problem)
        got = GrpSel(tester=GTestCI(), **config).select(problem)
        assert snapshot(got) == snapshot(want)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(problem=problems(), strategy_index=st.integers(0, 3),
           split=st.integers(0, 9))
    def test_online(self, problem, strategy_index, split):
        strategy = STRATEGIES[strategy_index]()
        pool = problem.candidates
        split = min(split, len(pool))
        batches = [batch for batch in (pool[:split], pool[split:]) if batch]
        want = SequentialOnline(tester=GTestCI(), subset_strategy=strategy)
        got = OnlineSelector(tester=GTestCI(), subset_strategy=strategy)
        for batch in batches:
            want_result = want.observe(problem, batch)
            got_result = got.observe(problem, batch)
            assert snapshot(got_result) == snapshot(want_result)


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
def fixed_problem():
    return build_problem(seed=11, n_rows=200, n_features=10, n_admissible=2)


class TestWavefrontUnderExecutors:
    """Wave scheduling composes with every executor — results and counts
    stay those of the serial sequential implementation."""

    @pytest.mark.parametrize("strategy_cls", STRATEGIES)
    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_seqsel_and_grpsel(self, fixed_problem, strategy_cls,
                               make_executor):
        want_seq = SequentialSeqSel(
            tester=GTestCI(), subset_strategy=strategy_cls()
        ).select(fixed_problem)
        want_grp = SequentialGrpSel(
            tester=GTestCI(), subset_strategy=strategy_cls(), seed=0
        ).select(fixed_problem)
        executor = make_executor()
        try:
            got_seq = SeqSel(tester=GTestCI(),
                             subset_strategy=strategy_cls(),
                             executor=executor).select(fixed_problem)
            got_grp = GrpSel(tester=GTestCI(),
                             subset_strategy=strategy_cls(), seed=0,
                             executor=executor).select(fixed_problem)
        finally:
            close(executor)
        assert snapshot(got_seq) == snapshot(want_seq)
        assert snapshot(got_grp) == snapshot(want_grp)


class TestWavefrontWithStores:
    """Cold runs against a fresh ExperimentStore namespace report the
    sequential counts; warm reruns execute zero tests and reproduce the
    selection exactly."""

    @pytest.mark.parametrize("make_executor", executor_factories())
    def test_cold_matches_sequential_and_warm_executes_nothing(
            self, fixed_problem, tmp_path, make_executor):
        want = SequentialSeqSel(
            tester=GTestCI(), subset_strategy=MarginalThenFull()
        ).select(fixed_problem)
        store = ExperimentStore(tmp_path / "suite")
        executor = make_executor()
        try:
            cold = SeqSel(tester=GTestCI(),
                          subset_strategy=MarginalThenFull(),
                          cache=store.ci_cache("seqsel"),
                          executor=executor).select(fixed_problem)
            store.save()
            warm_store = ExperimentStore(tmp_path / "suite")
            warm = SeqSel(tester=GTestCI(),
                          subset_strategy=MarginalThenFull(),
                          cache=warm_store.ci_cache("seqsel"),
                          executor=executor).select(fixed_problem)
        finally:
            close(executor)
        assert snapshot(cold) == snapshot(want)
        assert warm.n_ci_tests == 0
        assert warm.cache_hits == want.n_ci_tests
        assert (warm.c1, warm.c2, warm.rejected) == \
               (want.c1, want.c2, want.rejected)

    def test_grpsel_warm_store_executes_nothing(self, fixed_problem,
                                                tmp_path):
        want = SequentialGrpSel(
            tester=GTestCI(), subset_strategy=MarginalThenFull(), seed=0,
            min_group=2).select(fixed_problem)
        store = ExperimentStore(tmp_path / "suite")
        cold = GrpSel(tester=GTestCI(), subset_strategy=MarginalThenFull(),
                      seed=0, min_group=2,
                      cache=store.ci_cache("grpsel")).select(fixed_problem)
        store.save()
        warm = GrpSel(tester=GTestCI(), subset_strategy=MarginalThenFull(),
                      seed=0, min_group=2,
                      cache=ExperimentStore(tmp_path / "suite")
                      .ci_cache("grpsel")).select(fixed_problem)
        assert snapshot(cold) == snapshot(want)
        assert warm.n_ci_tests == 0
        assert warm.selected_set == want.selected_set


class TestTestWaves:
    """Direct contract tests of the ledger's multi-stream API."""

    def test_prefixes_match_per_stream_sequential(self, fixed_problem):
        table = fixed_problem.table
        strategy = ExhaustiveSubsets()
        streams = lambda: strategy.phase1_streams(  # noqa: E731
            fixed_problem.candidates, fixed_problem.sensitive,
            fixed_problem.admissible)

        wave_ledger = CITestLedger(GTestCI())
        wave = wave_ledger.test_waves(table, streams())

        seq_ledger = CITestLedger(GTestCI())
        sequential = [seq_ledger.test_batch(table, stream,
                                            stop_on_independent=True)
                      for stream in streams()]
        assert [[(r.p_value, r.independent, r.query) for r in prefix]
                for prefix in wave] == \
               [[(r.p_value, r.independent, r.query) for r in prefix]
                for prefix in sequential]
        assert wave_ledger.n_tests == seq_ledger.n_tests
        # Same executed multiset, different (wave-major) order.
        assert sorted((e.query.x, e.query.y, e.query.z)
                      for e in wave_ledger.entries) == \
               sorted((e.query.x, e.query.y, e.query.z)
                      for e in seq_ledger.entries)

    def test_streams_consumed_exactly_to_the_deciding_rank(self):
        table = build_problem(seed=3, n_rows=80, n_features=4,
                              n_admissible=1).table
        consumed = [0, 0]

        def stream(index, names):
            for name in names:
                consumed[index] += 1
                yield CIQuery.make(name, "y", ())

        ledger = CITestLedger(GTestCI())
        prefixes = ledger.test_waves(table, [
            stream(0, ["f0", "f1", "f2", "f3"]),
            stream(1, ["f2", "f3"]),
        ])
        # Never advanced past the deciding verdict: exactly one pull per
        # recorded result, lazily, per stream.
        for index, prefix in enumerate(prefixes):
            assert prefix  # something was evaluated for each stream
            assert consumed[index] == len(prefix)

    def test_empty_and_exhausted_streams(self, fixed_problem):
        ledger = CITestLedger(GTestCI())
        assert ledger.test_waves(fixed_problem.table, []) == []
        prefixes = ledger.test_waves(fixed_problem.table,
                                     [iter(()), iter(())])
        assert prefixes == [[], []]


class TestPhase1Streams:
    """The shared-frame streams are the per-query reference, rank by rank."""

    UNITS = ["f1", ["f3", "f2"], "f0", ["f4", "f2", "f4"], ["f5"]]

    @pytest.mark.parametrize("strategy_cls", STRATEGIES)
    @pytest.mark.parametrize("admissible", [[], ["a1"], ["a2", "a0", "a1"]])
    def test_streams_yield_phase1_queries(self, strategy_cls, admissible):
        strategy = strategy_cls()
        streams = strategy.phase1_streams(self.UNITS, ["s"], admissible)
        # Drain back to front: whichever stream reaches a rank first
        # builds the rank's shared frame, so the order must not matter.
        got = [list(stream) for stream in reversed(streams)][::-1]
        want = [list(strategy.phase1_queries(unit, ["s"], admissible))
                for unit in self.UNITS]
        assert got == want

    def test_subsets_pulled_once_when_rank0_decides_every_stream(self):
        class CountingSubsets(ExhaustiveSubsets):
            pulls = 0

            def subsets(self, admissible):
                for subset in super().subsets(admissible):
                    self.pulls += 1
                    yield subset

        # s -> a0 only: every candidate is marginally independent of s,
        # so rank 0 (the empty subset) decides every stream.
        candidates = [f"f{i}" for i in range(6)]
        dag = CausalDAG(nodes=["s", "a0", "a1"] + candidates,
                        edges=[("s", "a0")])
        strategy = CountingSubsets()
        ledger = CITestLedger(OracleCI(dag), executor=SerialExecutor())
        prefixes = ledger.test_waves(None, strategy.phase1_streams(
            candidates, ["s"], ["a0", "a1"]))
        assert [len(p) for p in prefixes] == [1] * len(candidates)
        assert all(p[0].independent for p in prefixes)
        assert strategy.pulls == 1
