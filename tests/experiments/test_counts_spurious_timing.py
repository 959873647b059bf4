"""Tests for the complexity, spuriousness, timing, and Table-2 experiments."""

import pytest

from repro.ci.fisher_z import FisherZCI
from repro.data.loaders import load_german
from repro.experiments.spuriousness import spurious_counts, sweep_spuriousness
from repro.experiments.table2 import table2_row
from repro.experiments.test_counts import (
    count_tests,
    sweep_bias_fraction,
    sweep_feature_count,
)
from repro.experiments.timing import time_rcit


class TestCountExperiments:
    def test_seqsel_linear_in_n(self):
        small = count_tests(n_features=64, n_biased=4, seed=0)
        large = count_tests(n_features=256, n_biased=4, seed=0)
        ratio = large.seqsel_tests / small.seqsel_tests
        assert 3.0 < ratio < 5.0  # ~linear growth (x4)

    def test_grpsel_sublinear_in_n(self):
        small = count_tests(n_features=64, n_biased=4, seed=0)
        large = count_tests(n_features=256, n_biased=4, seed=0)
        ratio = large.grpsel_tests / small.grpsel_tests
        assert ratio < 2.5  # ~k log n growth

    def test_grpsel_wins_when_bias_sparse(self):
        point = count_tests(n_features=512, n_biased=4, seed=0)
        assert point.grpsel_tests < point.seqsel_tests / 3

    def test_grpsel_grows_with_bias_fraction(self):
        """Figure 4 shape: GrpSel cost rises with p, SeqSel stays flat."""
        sweep = sweep_bias_fraction(n_features=200, percentages=[1, 5, 10],
                                    seed=0)
        _, seq, grp = sweep.series("p_percent")
        assert grp[0] < grp[-1]                     # GrpSel cost increases
        assert max(seq) - min(seq) < 0.25 * seq[0]  # SeqSel roughly flat

    def test_sweep_feature_count_shapes(self):
        """Figure 5 shape: SeqSel linear, GrpSel flat-ish at fixed k."""
        sweep = sweep_feature_count([128, 256, 512], n_biased=8, seed=0)
        ns, seq, grp = sweep.series("n_features")
        assert seq[-1] > 3.0 * seq[0]
        assert grp[-1] < 2.0 * grp[0]

    def test_point_metadata(self):
        point = count_tests(50, 5, seed=1)
        assert point.p_percent == pytest.approx(10.0)

    def test_executor_sees_the_oracle_and_counts_hold(self):
        """Regression: each selector wrapped an inner ledger, so the
        executor a caller passed received that ledger instead of the
        oracle queries (a process pool then fell back to serial)."""
        from repro.ci.executor import SerialExecutor

        class RecordingExecutor(SerialExecutor):
            def __init__(self):
                self.testers = set()

            def run(self, tester, table, queries):
                self.testers.add(type(tester).__name__)
                return super().run(tester, table, queries)

        executor = RecordingExecutor()
        point = count_tests(128, 4, seed=0, executor=executor)
        assert executor.testers == {"OracleCI"}
        assert point == count_tests(128, 4, seed=0)


class TestSpuriousness:
    def test_grpsel_fewer_spurious_results(self):
        """§5.3: group testing reduces spurious verdicts at large t."""
        point = spurious_counts(n_features=200, n_samples=500,
                                tester=FisherZCI(alpha=0.05), seed=0)
        assert point.grpsel_spurious <= point.seqsel_spurious
        assert point.seqsel_spurious > 0  # finite-sample noise must bite

    def test_sweep_structure(self):
        sweep = sweep_spuriousness([20, 40], n_samples=400, seed=0)
        ts, seq, grp = sweep.series()
        assert ts == [20, 40]
        assert len(seq) == len(grp) == 2


class TestTiming:
    def test_runtime_grows_mildly(self):
        series = time_rcit(n_rows=1000, set_sizes=[1, 32], dataset="unit")
        sizes, seconds = series.series()
        assert sizes == [1, 32]
        assert all(s > 0 for s in seconds)
        # Figure 3b claim: growth is linear with a very small gradient.
        assert seconds[1] < 30 * seconds[0] + 0.5


class TestTable2:
    def test_row_shape_and_claims(self):
        dataset = load_german(seed=0, n_train=2000, n_test=800)
        row = table2_row(dataset, seed=0)
        # Headline Table 2 claim: classifier CMI << target CMI.
        assert row.cmi_target > 0.005
        assert row.cmi_pred < row.cmi_target
        assert row.cmi_pred < 0.01
        assert row.seqsel_tests > 0
        assert row.grpsel_tests > 0
        cells = row.cells()
        assert cells["dataset"] == "German"
