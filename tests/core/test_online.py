"""Tests for the online (incremental) selector."""

import pytest

from repro.causal.random_graphs import FairnessGraphSpec, fairness_scm
from repro.ci.adaptive import AdaptiveCI
from repro.ci.oracle import OracleCI
from repro.core.online import OnlineSelector
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.seqsel import SeqSel
from repro.core.subset_search import MarginalThenFull
from repro.exceptions import SelectionError


@pytest.fixture()
def planted():
    spec = FairnessGraphSpec(n_features=16, n_biased=4, seed=21,
                             redundant_fraction=0.5)
    scm, ground = fairness_scm(spec)
    table = scm.sample(10, seed=21)  # oracle mode: rows irrelevant
    problem = FairFeatureSelectionProblem.from_table(table)
    return scm, ground, problem


class TestOnlineOracle:
    def test_batched_equals_batch_run(self, planted):
        scm, ground, problem = planted
        strategy = MarginalThenFull()
        batch_result = SeqSel(tester=OracleCI(scm.dag),
                              subset_strategy=strategy).select(problem)

        online = OnlineSelector(tester=OracleCI(scm.dag),
                                subset_strategy=strategy)
        pool = problem.candidates
        for i in range(0, len(pool), 5):
            online.observe(problem, pool[i:i + 5])
        assert online.current.selected_set == batch_result.selected_set
        assert online.current.selected_set == ground.safe

    def test_single_feature_batches(self, planted):
        scm, ground, problem = planted
        online = OnlineSelector(tester=OracleCI(scm.dag),
                                subset_strategy=MarginalThenFull())
        for feature in problem.candidates:
            online.observe(problem, [feature])
        assert online.current.selected_set == ground.safe

    def test_rejected_features_get_second_chance(self, planted):
        """A C2-eligible feature arriving before its blockers must recover.

        R features need C1 context only through A (they're blocked by the
        admissible set), so ordering doesn't hurt them — but this documents
        the retry path: rejected features are re-tested on later batches.
        """
        scm, ground, problem = planted
        online = OnlineSelector(tester=OracleCI(scm.dag),
                                subset_strategy=MarginalThenFull())
        # Feed redundant features first, then everything else.
        pool = (ground.redundant + ground.biased + ground.mediated
                + ground.null)
        for i in range(0, len(pool), 4):
            online.observe(problem, pool[i:i + 4])
        assert online.current.selected_set == ground.safe

    def test_duplicate_observation_rejected(self, planted):
        scm, _, problem = planted
        online = OnlineSelector(tester=OracleCI(scm.dag))
        first = problem.candidates[0]
        online.observe(problem, [first])
        with pytest.raises(SelectionError, match="twice"):
            online.observe(problem, [first])

    def test_unknown_feature_rejected(self, planted):
        scm, _, problem = planted
        online = OnlineSelector(tester=OracleCI(scm.dag))
        with pytest.raises(SelectionError, match="not in table"):
            online.observe(problem, ["ghost"])

    def test_ledger_accumulates(self, planted):
        scm, _, problem = planted
        online = OnlineSelector(tester=OracleCI(scm.dag),
                                subset_strategy=MarginalThenFull())
        online.observe(problem, problem.candidates[:4])
        first = online.n_ci_tests
        online.observe(problem, problem.candidates[4:8])
        assert online.n_ci_tests > first


class TestNoRetryWithoutNewEvidence:
    """Regression: rejected features used to be re-queued on *every* batch,
    re-executing byte-identical queries whenever C1 (hence the phase-2
    conditioning set) had not grown — inflating n_ci_tests and letting
    stochastic testers flip settled verdicts."""

    @staticmethod
    def make_problem(n=1200, seed=7):
        import numpy as np
        from repro.core.problem import FairFeatureSelectionProblem
        from repro.data.table import Table
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 2, n)
        y = np.where(rng.random(n) < 0.9, s, 1 - s)
        flip = lambda base, p: np.where(rng.random(n) < p, base,  # noqa: E731
                                        rng.integers(0, 2, n))
        table = Table({
            "s": s, "y": y,
            "r1": flip(s, 0.85), "r2": flip(s, 0.85),  # biased: rejected
            "ok": rng.integers(0, 2, n),               # independent: C1
        })
        return FairFeatureSelectionProblem(
            table=table, sensitive=["s"], admissible=[], candidates=
            ["r1", "r2", "ok"], target="y")

    @pytest.fixture()
    def problem(self):
        return self.make_problem()

    def _selector(self):
        from repro.ci.gtest import GTestCI
        from repro.core.subset_search import FullSetOnly
        return OnlineSelector(tester=GTestCI(),
                              subset_strategy=FullSetOnly())

    def test_unchanged_conditioning_skips_retries(self, problem):
        online = self._selector()
        online.observe(problem, ["r1"])
        # r1: 1 phase-1 test (fails) + 1 phase-2 test (rejected).
        assert online.n_ci_tests == 2
        assert online.current.rejected == ["r1"]

        online.observe(problem, ["r2"])
        # r2 costs exactly its own 2 tests; r1 must NOT be re-executed —
        # the conditioning set did not change.  (The old behaviour ran
        # 5 tests here: r1's identical phase-2 query was re-queued.)
        assert online.n_ci_tests == 4
        assert online.current.rejected == ["r1", "r2"]

    def test_widening_table_alone_does_not_retry(self, problem):
        """The online setting widens the table every batch; an appended
        column that no retried query touches is not new evidence, so the
        skip must still fire (keying on the whole-table fingerprint would
        re-queue on every observe)."""
        import numpy as np
        from repro.core.problem import FairFeatureSelectionProblem
        online = self._selector()
        online.observe(problem, ["r1"])
        assert online.n_ci_tests == 2

        rng = np.random.default_rng(99)
        n = problem.table.n_rows
        # w is biased like r1 (fails phase 1, rejected in phase 2) so C1 —
        # and with it the conditioning set — stays empty.
        w = np.where(rng.random(n) < 0.85, problem.table["s"],
                     rng.integers(0, 2, n))
        widened = FairFeatureSelectionProblem(
            table=problem.table.with_column("w", w),
            sensitive=["s"], admissible=[], candidates=["r1", "r2", "ok", "w"],
            target="y")
        online.observe(widened, ["w"])
        # w's own phase-1/phase-2 tests only; r1 is not re-executed.
        assert online.n_ci_tests == 4
        assert online.current.rejected == ["r1", "w"]

    def test_new_data_still_retries(self, problem):
        """Changed table data is new evidence even when the conditioning
        *names* are unchanged (the stream appends rows): prior rejects
        must be re-tested against the new rows."""
        online = self._selector()
        online.observe(problem, ["r1"])
        assert online.n_ci_tests == 2

        grown = self.make_problem(n=1800, seed=11)
        online.observe(grown, ["r2"])
        # r2's 2 tests plus r1's retry against the new data: 5 total.
        assert online.n_ci_tests == 5

    def test_grown_conditioning_still_retries(self, problem):
        online = self._selector()
        online.observe(problem, ["r1"])
        online.observe(problem, ["r2"])
        assert online.n_ci_tests == 4

        online.observe(problem, ["ok"])
        # "ok" enters C1 (1 phase-1 test), the conditioning set grows, so
        # both prior rejects get their second chance: 2 retry tests.
        assert "ok" in online.current.c1
        assert online.n_ci_tests == 4 + 1 + 2

    def test_verdicts_stable_for_stochastic_tester_between_batches(self):
        """With an unseeded-looking stochastic tester, skipping redundant
        retries keeps settled verdicts settled."""
        import numpy as np
        from repro.ci.base import CITester
        from repro.core.problem import FairFeatureSelectionProblem
        from repro.data.table import Table

        class FlipFlop(CITester):
            """Alternates its verdict on every executed test."""

            method = "flipflop"

            def __init__(self):
                super().__init__(alpha=0.5)
                self.calls = 0

            def _test(self, x, y, z):
                self.calls += 1
                return (0.0 if self.calls % 2 else 1.0, 0.0)

        rng = np.random.default_rng(0)
        n = 100
        table = Table({"s": rng.integers(0, 2, n),
                       "y": rng.integers(0, 2, n),
                       "g1": rng.integers(0, 2, n),
                       "g2": rng.integers(0, 2, n)})
        problem = FairFeatureSelectionProblem(
            table=table, sensitive=["s"], admissible=[],
            candidates=["g1", "g2"], target="y")
        from repro.core.subset_search import FullSetOnly
        online = OnlineSelector(tester=FlipFlop(),
                                subset_strategy=FullSetOnly())
        online.observe(problem, ["g1"])  # phase1 dep, phase2 indep -> C2
        assert online.current.c2 == ["g1"]
        online.observe(problem, ["g2"])
        # g1's phase-2 verdict must survive the second batch untouched:
        # no retry ran, so the flip-flopping tester had no chance to flip it.
        assert "g1" in online.current.c2


class TestDeltaPolicies:
    """Per-column delta reuse: only features whose queries touch changed
    evidence re-queue; everything skipped is a reused verdict (a cache
    hit), never a test."""

    @staticmethod
    def _selector(delta):
        from repro.ci.gtest import GTestCI
        from repro.core.subset_search import FullSetOnly
        return OnlineSelector(tester=GTestCI(),
                              subset_strategy=FullSetOnly(), delta=delta)

    @staticmethod
    def _revised(problem, name, seed=123):
        """The same problem with column ``name`` regenerated (still
        biased towards s, so verdicts are comparable)."""
        import numpy as np
        rng = np.random.default_rng(seed)
        n = problem.table.n_rows
        fresh = np.where(rng.random(n) < 0.85, problem.table["s"],
                         rng.integers(0, 2, n))
        return FairFeatureSelectionProblem(
            table=problem.table.with_column(name, fresh),
            sensitive=["s"], admissible=[],
            candidates=list(problem.candidates), target="y")

    def test_own_column_drift_requeues_only_that_feature(self):
        problem = TestNoRetryWithoutNewEvidence.make_problem()
        online = self._selector("column")
        online.observe(problem, ["r1", "r2"])
        assert set(online.current.rejected) == {"r1", "r2"}
        base = online.n_ci_tests
        # Localized drift: r1's own column is revised, r2's evidence is
        # untouched — only r1 re-queues.
        online.observe(self._revised(problem, "r1"), [])
        assert online.n_ci_tests == base + 1
        assert online.delta_hits == 1  # r2's verdict reused

    def test_shared_column_drift_requeues_everything(self):
        problem = TestNoRetryWithoutNewEvidence.make_problem()
        online = self._selector("column")
        online.observe(problem, ["r1", "r2"])
        base = online.n_ci_tests
        # The target participates in every phase-2 query: revising it
        # invalidates all held verdicts.
        online.observe(self._revised(problem, "y"), [])
        assert online.n_ci_tests == base + 2
        assert online.delta_hits == 0

    def test_skipped_retries_are_cache_hits_never_tests(self):
        problem = TestNoRetryWithoutNewEvidence.make_problem()
        online = self._selector("column")
        first = online.observe(problem, ["r1"])
        assert first.cache_hits == 0
        second = online.observe(problem, ["r2"])
        # r1's skipped retry surfaces as exactly one cache hit; the test
        # count covers only r2's own two queries.
        assert second.cache_hits - first.cache_hits == 1
        assert second.n_ci_tests - first.n_ci_tests == 2

    def test_off_policy_always_retries(self):
        problem = TestNoRetryWithoutNewEvidence.make_problem()
        online = self._selector("off")
        online.observe(problem, ["r1"])
        assert online.n_ci_tests == 2
        online.observe(problem, ["r2"])
        # r2's 2 tests plus r1's unconditional retry.
        assert online.n_ci_tests == 5
        assert online.delta_hits == 0

    def test_invalid_policy_rejected(self):
        with pytest.raises(SelectionError, match="delta-reuse policy"):
            OnlineSelector(delta="sometimes")

    def _drift_stream(self):
        """A deterministic drifting stream mixing feature arrivals,
        no-op batches, a localized column revision, row growth, and
        conditioning growth."""
        p0 = TestNoRetryWithoutNewEvidence.make_problem()
        yield p0, ["r1"]
        yield p0, ["r2"]                      # no drift
        yield self._revised(p0, "r1"), []     # localized drift
        grown = TestNoRetryWithoutNewEvidence.make_problem(n=1800, seed=11)
        yield grown, []                       # every column changed
        yield grown, ["ok"]                   # conditioning set grows

    def test_delta_reuse_never_changes_final_state(self):
        """The property the whole mechanism rests on: for a deterministic
        tester, reusing a verdict whose evidence is unchanged equals
        re-running the query — so every policy converges to the same
        final selection, at monotonically decreasing test cost."""
        finals, counts = {}, {}
        for policy in ("column", "off"):
            online = self._selector(policy)
            for problem, batch in self._drift_stream():
                online.observe(problem, batch)
            result = online.current
            finals[policy] = (set(result.c1), set(result.c2),
                              set(result.rejected), dict(result.reasons))
            counts[policy] = result.n_ci_tests
        assert finals["column"] == finals["off"]
        assert counts["column"] <= counts["off"]

    def test_snapshot_is_memoised_until_next_observe(self):
        problem = TestNoRetryWithoutNewEvidence.make_problem()
        online = self._selector("column")
        online.observe(problem, ["r1"])
        assert online.current is online.current
        first = online.current
        online.observe(problem, ["r2"])
        assert online.current is not first


class TestStreamAPI:
    def test_stream_of_pairs_matches_observe_loop(self, planted):
        scm, ground, problem = planted
        pool = problem.candidates
        pairs = [(problem, pool[i:i + 5]) for i in range(0, len(pool), 5)]

        streamed = OnlineSelector(tester=OracleCI(scm.dag),
                                  subset_strategy=MarginalThenFull())
        results = list(streamed.stream(pairs))
        assert len(results) == len(pairs)

        looped = OnlineSelector(tester=OracleCI(scm.dag),
                                subset_strategy=MarginalThenFull())
        for prob, batch in pairs:
            looped.observe(prob, batch)
        assert results[-1].selected_set == looped.current.selected_set
        assert results[-1].n_ci_tests == looped.current.n_ci_tests

    def test_bare_problem_items_observe_unseen_candidates(self, planted):
        scm, ground, problem = planted
        pool = problem.candidates
        online = OnlineSelector(tester=OracleCI(scm.dag),
                                subset_strategy=MarginalThenFull())
        first = problem.with_candidates(pool[:6])
        results = list(online.stream([first, problem]))
        # Second item picks up exactly the not-yet-seen remainder.
        assert len(results) == 2
        assert online.current.selected_set == ground.safe

    def test_stream_is_lazy_and_anytime(self, planted):
        scm, ground, problem = planted
        pool = problem.candidates
        pairs = [(problem, [f]) for f in pool]
        online = OnlineSelector(tester=OracleCI(scm.dag),
                                subset_strategy=MarginalThenFull())
        it = online.stream(pairs)
        seen = [next(it) for _ in range(3)]
        # Only the consumed prefix has been observed; the anytime state
        # reflects exactly those three features.
        assert len(seen) == 3
        decided = (set(online.current.c1) | set(online.current.c2)
                   | set(online.current.rejected))
        assert decided == set(pool[:3])


class TestOnlineStatistical:
    def test_matches_batch_on_sampled_data(self):
        spec = FairnessGraphSpec(n_features=10, n_biased=3, seed=5)
        scm, ground = fairness_scm(spec)
        table = scm.sample(4000, seed=6)
        problem = FairFeatureSelectionProblem.from_table(table)
        tester = AdaptiveCI(seed=0)

        online = OnlineSelector(tester=tester)
        pool = problem.candidates
        online.observe(problem, pool[:5])
        online.observe(problem, pool[5:])

        batch = SeqSel(tester=tester).select(problem)
        assert online.current.selected_set == batch.selected_set


class TestSharedLedger:
    def test_counts_are_per_selector_on_a_shared_ledger(self):
        """A selector given a ledger other runs already counted on reports
        its own tests and hits, like a selector on a fresh ledger."""
        from repro.ci.base import CITestLedger
        from repro.ci.gtest import GTestCI
        from repro.core.subset_search import FullSetOnly
        problem = TestNoRetryWithoutNewEvidence.make_problem()
        problem = FairFeatureSelectionProblem(
            table=problem.table, sensitive=["s"], admissible=[],
            candidates=["r1", "r2"], target="y")
        ledger = CITestLedger(GTestCI())
        SeqSel(tester=ledger, subset_strategy=FullSetOnly()).select(problem)
        before = ledger.n_tests
        assert before > 0

        shared = OnlineSelector(tester=ledger, subset_strategy=FullSetOnly())
        fresh = OnlineSelector(tester=GTestCI(),
                               subset_strategy=FullSetOnly())
        for online in (shared, fresh):
            online.observe(problem, ["r1", "r2"])
        assert shared.n_ci_tests == fresh.n_ci_tests
        assert shared.current.n_ci_tests == fresh.current.n_ci_tests
        assert shared.current.cache_hits == fresh.current.cache_hits
        assert ledger.n_tests == before + fresh.n_ci_tests
