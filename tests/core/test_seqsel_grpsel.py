"""Behavioural tests for SeqSel and GrpSel against planted ground truth."""

import numpy as np
import pytest

from repro.causal.random_graphs import FairnessGraphSpec, fairness_scm
from repro.ci.adaptive import AdaptiveCI
from repro.ci.base import CITestLedger
from repro.ci.oracle import OracleCI
from repro.core.grpsel import GrpSel
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.result import Reason
from repro.core.seqsel import SeqSel
from repro.core.subset_search import MarginalThenFull


@pytest.fixture(scope="module")
def planted():
    spec = FairnessGraphSpec(n_features=14, n_biased=4, n_admissible=1,
                             redundant_fraction=0.25, seed=9)
    scm, ground = fairness_scm(spec)
    table = scm.sample(5000, seed=10)
    problem = FairFeatureSelectionProblem.from_table(table)
    return scm, ground, problem


class TestSeqSelStatistical:
    def test_recovers_ground_truth(self, planted):
        _, ground, problem = planted
        result = SeqSel(tester=AdaptiveCI(seed=0)).select(problem)
        assert result.selected_set == ground.safe
        assert set(result.rejected) == set(ground.biased)

    def test_redundant_features_found_in_phase2(self, planted):
        _, ground, problem = planted
        result = SeqSel(tester=AdaptiveCI(seed=0)).select(problem)
        for feature in ground.redundant:
            assert result.reasons[feature] == Reason.PHASE2_IRRELEVANT

    def test_null_and_mediated_in_phase1(self, planted):
        _, ground, problem = planted
        result = SeqSel(tester=AdaptiveCI(seed=0)).select(problem)
        for feature in ground.null + ground.mediated:
            assert result.reasons[feature] == Reason.PHASE1_INDEPENDENT

    def test_test_count_linear_in_candidates(self, planted):
        scm, _, problem = planted
        ledger_tester = OracleCI(scm.dag)
        result = SeqSel(tester=ledger_tester,
                        subset_strategy=MarginalThenFull()).select(problem)
        n = len(problem.candidates)
        # Phase 1: <= 2 tests per candidate; phase 2: 1 per survivor.
        assert result.n_ci_tests <= 2 * n + n


class TestGrpSelStatistical:
    def test_matches_seqsel_selection(self, planted):
        _, ground, problem = planted
        seq = SeqSel(tester=AdaptiveCI(seed=0)).select(problem)
        grp = GrpSel(tester=AdaptiveCI(seed=0), seed=1).select(problem)
        assert grp.selected_set == seq.selected_set == ground.safe

    def test_selection_order_stable(self, planted):
        """Output order follows the problem's candidate order, not shuffle."""
        _, _, problem = planted
        grp = GrpSel(tester=AdaptiveCI(seed=0), seed=5).select(problem)
        pool_order = {c: i for i, c in enumerate(problem.candidates)}
        assert grp.c1 == sorted(grp.c1, key=pool_order.__getitem__)

    def test_deterministic_given_seed(self, planted):
        _, _, problem = planted
        r1 = GrpSel(tester=AdaptiveCI(seed=0), seed=2).select(problem)
        r2 = GrpSel(tester=AdaptiveCI(seed=0), seed=2).select(problem)
        assert r1.selected == r2.selected
        assert r1.n_ci_tests == r2.n_ci_tests


class TestOracleEquivalence:
    """Under a d-separation oracle, GrpSel ≡ SeqSel exactly (faithfulness)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_grpsel_equals_seqsel_under_oracle(self, seed):
        spec = FairnessGraphSpec(n_features=20, n_biased=5, seed=seed,
                                 redundant_fraction=0.4)
        scm, ground = fairness_scm(spec)
        table = scm.sample(10, seed=seed)  # data irrelevant for the oracle
        problem = FairFeatureSelectionProblem.from_table(table)
        oracle = OracleCI(scm.dag)
        strategy = MarginalThenFull()
        seq = SeqSel(tester=oracle, subset_strategy=strategy).select(problem)
        grp = GrpSel(tester=oracle, subset_strategy=strategy,
                     seed=seed).select(problem)
        assert seq.selected_set == grp.selected_set == ground.safe

    def test_grpsel_fewer_tests_when_bias_sparse(self):
        """k << n: group testing must beat per-feature testing."""
        spec = FairnessGraphSpec(n_features=128, n_biased=2, seed=1)
        scm, _ = fairness_scm(spec)
        table = scm.sample(10, seed=1)
        problem = FairFeatureSelectionProblem.from_table(table)
        strategy = MarginalThenFull()

        oracle = OracleCI(scm.dag)
        seq = SeqSel(tester=oracle, subset_strategy=strategy).select(problem)
        grp = GrpSel(tester=oracle, subset_strategy=strategy,
                     seed=0).select(problem)
        assert grp.n_ci_tests < seq.n_ci_tests / 2

    def test_selector_runs_on_a_ledger_passed_as_its_tester(self):
        """A ledger given as the tester is the run's ledger, never wrapped
        in a second one: it counts every test, each run still reports its
        own share, and the ledger's own cache and executor cannot be
        overridden by the selector's."""
        spec = FairnessGraphSpec(n_features=20, n_biased=5, seed=0)
        scm, _ = fairness_scm(spec)
        problem = FairFeatureSelectionProblem.from_table(
            scm.sample(10, seed=0))
        strategy = MarginalThenFull()
        ledger = CITestLedger(OracleCI(scm.dag))
        first = SeqSel(tester=ledger,
                       subset_strategy=strategy).select(problem)
        assert first.n_ci_tests == ledger.n_tests > 0
        second = GrpSel(tester=ledger, subset_strategy=strategy,
                        seed=0).select(problem)
        assert ledger.n_tests == first.n_ci_tests + second.n_ci_tests
        with pytest.raises(ValueError, match="cache"):
            SeqSel(tester=ledger, cache=True).select(problem)


class TestEdgeCases:
    def make_problem(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        from repro.data.schema import Role
        from repro.data.table import Table
        s = (rng.random(n) < 0.5).astype(int)
        a = np.where(rng.random(n) < 0.8, s, 1 - s)
        y = np.where(rng.random(n) < 0.8, a, 1 - a)
        return FairFeatureSelectionProblem(
            table=Table({"s": s, "a": a, "y": y},
                        roles={"s": Role.SENSITIVE, "a": Role.ADMISSIBLE,
                               "y": Role.TARGET}),
            sensitive=["s"], admissible=["a"], candidates=[], target="y",
        )

    def test_empty_candidate_pool(self):
        problem = self.make_problem()
        for algo in (SeqSel(tester=AdaptiveCI(seed=0)),
                     GrpSel(tester=AdaptiveCI(seed=0))):
            result = algo.select(problem)
            assert result.selected == []
            assert result.rejected == []

    def test_grpsel_min_group_validation(self):
        with pytest.raises(ValueError):
            GrpSel(min_group=0)

    def test_grpsel_default_tester_inherits_seed(self):
        """Regression: the default RCIT used to hardcode seed=0, so
        fixed-seed runs were not fully reproducible."""
        assert GrpSel(seed=7).tester._seed == 7
        assert GrpSel().tester._seed == 0

    def test_grpsel_default_tester_reproducible(self):
        rng = np.random.default_rng(4)
        from repro.data.schema import Role
        from repro.data.table import Table
        n = 300
        s = (rng.random(n) < 0.5).astype(int)
        a = np.where(rng.random(n) < 0.8, s, 1 - s)
        y = np.where(rng.random(n) < 0.8, a, 1 - a)
        f1, f2 = rng.normal(size=n), rng.normal(size=n) + y
        problem = FairFeatureSelectionProblem(
            table=Table({"s": s, "a": a, "y": y, "f1": f1, "f2": f2},
                        roles={"s": Role.SENSITIVE, "a": Role.ADMISSIBLE,
                               "y": Role.TARGET}),
            sensitive=["s"], admissible=["a"], candidates=["f1", "f2"],
            target="y")
        r1 = GrpSel(seed=3).select(problem)
        r2 = GrpSel(seed=3).select(problem)
        assert r1.selected == r2.selected
        assert r1.n_ci_tests == r2.n_ci_tests

    def test_grpsel_min_group_fallback_matches_default(self):
        """Early-stop splitting with per-feature fallback selects the same
        set as full recursive splitting (only the test counts differ)."""
        from repro.causal.random_graphs import FairnessGraphSpec, fairness_scm
        from repro.core.subset_search import MarginalThenFull

        spec = FairnessGraphSpec(n_features=16, n_biased=4, seed=3)
        scm, ground = fairness_scm(spec)
        table = scm.sample(4, seed=3)
        problem = FairFeatureSelectionProblem.from_table(table)
        strategy = MarginalThenFull()
        default = GrpSel(tester=OracleCI(scm.dag), subset_strategy=strategy,
                         seed=0).select(problem)
        early = GrpSel(tester=OracleCI(scm.dag), subset_strategy=strategy,
                       seed=0, min_group=4).select(problem)
        assert early.selected_set == default.selected_set == ground.safe
