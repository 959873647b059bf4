"""Tests for the discrete G-test / chi-squared CI tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ci import gtest
from repro.ci.gtest import ChiSquaredCI, GTestCI, fused_counts
from repro.data.table import Table

#: Two-sided binomial band for 400 null trials at alpha = 0.05 (mean 20,
#: sd 4.4): rejections outside [7, 35] mean a miscalibrated test.
NULL_TRIALS, NULL_BAND = 400, (7, 35)


def make_table(n=4000, seed=0, flip=0.05):
    """s -> x (noisy copy), z = mediator: x ⊥ s | z pattern and more."""
    rng = np.random.default_rng(seed)
    s = (rng.random(n) < 0.5).astype(int)
    z = np.where(rng.random(n) < 0.9, s, 1 - s)        # strong mediator
    x_mediated = np.where(rng.random(n) < 0.9, z, 1 - z)  # child of z only
    proxy = np.where(rng.random(n) < flip, 1 - s, s)   # direct child of s
    noise = (rng.random(n) < 0.5).astype(int)
    return Table({"s": s, "z": z, "x": x_mediated, "proxy": proxy,
                  "noise": noise})


@pytest.fixture(params=[GTestCI, ChiSquaredCI])
def tester(request):
    return request.param(alpha=0.01)


class TestVerdicts:
    def test_independent_pair_accepted(self, tester):
        assert tester.independent(make_table(), "noise", "s")

    def test_dependent_pair_rejected(self, tester):
        assert not tester.independent(make_table(), "proxy", "s")

    def test_mediated_independence(self, tester):
        t = make_table()
        assert not tester.independent(t, "x", "s")
        assert tester.independent(t, "x", "s", ["z"])

    def test_group_query_detects_single_bad_member(self, tester):
        # {noise, proxy} jointly dependent on s because proxy is.
        assert not tester.independent(make_table(), ["noise", "proxy"], "s")

    def test_group_query_all_clean(self, tester):
        t = make_table()
        t2 = Table({"s": t["s"], "noise": t["noise"],
                    "noise2": np.roll(t["noise"], 7)})
        assert tester.independent(t2, ["noise", "noise2"], "s")


class TestCalibration:
    def test_false_positive_rate_near_alpha(self):
        """Under the null, p-values should be roughly uniform."""
        tester = GTestCI(alpha=0.05)
        rejections = 0
        trials = 200
        for i in range(trials):
            rng = np.random.default_rng(1000 + i)
            t = Table({"a": (rng.random(300) < 0.5).astype(int),
                       "b": (rng.random(300) < 0.5).astype(int)})
            if not tester.independent(t, "a", "b"):
                rejections += 1
        assert rejections / trials < 0.12  # alpha=0.05 plus slack

    @staticmethod
    def conditional_null(rng, n, n_strata):
        """X and Y each depend on Z, and X ⊥ Y | Z holds."""
        z = rng.integers(0, n_strata, n)
        shift = z / (n_strata - 1)
        x = (rng.random(n) < 0.2 + 0.6 * shift).astype(int)
        y = (rng.random(n) < 0.7 - 0.4 * shift).astype(int)
        return Table({"x": x, "y": y, "z": z})

    @pytest.mark.parametrize("n_strata", [3, 9])
    def test_conditional_null_rate_in_binomial_band(self, n_strata):
        """Type-I rate at alpha = 0.05 on a true conditional null with
        n = 2000, through ``GTestCI.test`` (the group kernel).  The sparse
        regime (n = 300, 27 strata) over-rejects and is not asserted."""
        tester = GTestCI(alpha=0.05)
        rejections = sum(
            not tester.test(self.conditional_null(
                np.random.default_rng([n_strata, trial]), 2000, n_strata),
                "x", "y", ["z"]).independent
            for trial in range(NULL_TRIALS))
        assert NULL_BAND[0] <= rejections <= NULL_BAND[1]

    def test_degenerate_stratum_returns_independent(self):
        t = Table({"x": np.zeros(50, dtype=int),
                   "y": (np.arange(50) % 2)})
        result = GTestCI().test(t, "x", "y")
        assert result.independent
        assert result.p_value == 1.0

    def test_statistic_monotone_in_dependence(self):
        strong = make_table(flip=0.01)
        weak = make_table(flip=0.35)
        tester = GTestCI()
        stat_strong = tester.test(strong, "proxy", "s").statistic
        stat_weak = tester.test(weak, "proxy", "s").statistic
        assert stat_strong > stat_weak


class TestMinExpectedGuard:
    """The documented expected-count guard (regression for an old guard
    that thresholded the raw stratum size)."""

    def sparse_table(self):
        # One big balanced stratum plus one tiny sparse stratum whose
        # expected counts are far below 5.
        x = np.array([0, 0, 1, 1] * 50 + [0, 1, 1, 1, 1])
        y = np.array([0, 1, 0, 1] * 50 + [1, 0, 1, 1, 1])
        z = np.array([0] * 200 + [1] * 5)
        return Table({"x": x, "y": y, "z": z})

    def test_sparse_stratum_contributes_no_dof(self):
        t = self.sparse_table()
        unguarded = GTestCI().test(t, "x", "y", ["z"])
        guarded = GTestCI(min_expected=5.0).test(t, "x", "y", ["z"])
        # The tiny stratum's misleading contribution is dropped: the guarded
        # statistic is exactly the big stratum's (here 0: x, y balanced).
        assert guarded.statistic < unguarded.statistic
        assert guarded.statistic == pytest.approx(0.0)
        assert guarded.p_value == pytest.approx(1.0)

    def test_guard_applies_to_expected_not_raw_size(self):
        # A large-but-skewed stratum can still fail the expected-count
        # guard even though its raw size is big.
        rng = np.random.default_rng(0)
        n = 400
        x = (rng.random(n) < 0.02).astype(int)  # rare level: tiny expecteds
        y = (rng.random(n) < 0.5).astype(int)
        t = Table({"x": x, "y": y})
        guarded = GTestCI(min_expected=5.0).test(t, "x", "y")
        assert guarded.p_value == 1.0 and guarded.statistic == 0.0

    def test_negative_min_expected_rejected(self):
        from repro.exceptions import CITestError
        with pytest.raises(CITestError):
            GTestCI(min_expected=-1.0)

    def test_all_strata_guarded_returns_independent(self):
        t = self.sparse_table()
        result = ChiSquaredCI(min_expected=1e6).test(t, "x", "y", ["z"])
        assert result.independent and result.p_value == 1.0


class _RecordingGTest(GTestCI):
    """Records every count tensor the group kernel's stacks hand to
    ``_stratum_terms`` (not the per-stratum fallback's)."""

    def __init__(self):
        super().__init__()
        self.tensors = []
        self._in_fallback = False

    def _stat_dof_stratified(self, *args):
        self._in_fallback = True
        try:
            return super()._stat_dof_stratified(*args)
        finally:
            self._in_fallback = False

    def _stratum_terms(self, counts):
        if not self._in_fallback:
            self.tensors.append(np.array(counts))
        return super()._stratum_terms(counts)


class TestGroupKernelCounts:
    """Query by query, the group kernel counts exactly the tensor
    ``fused_counts`` builds and returns exactly ``_from_codes``'s result,
    whether its stacks are split by the cell budget or not."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_rows=st.integers(1, 300),
           x_levels=st.lists(st.integers(1, 6), min_size=1, max_size=8),
           y_levels=st.integers(1, 4), z_levels=st.integers(1, 12),
           budget=st.sampled_from([gtest.MAX_DENSE_CELLS, 200, 24]))
    def test_counts_and_results_match_per_query(self, seed, n_rows,
                                                 x_levels, y_levels,
                                                 z_levels, budget):
        rng = np.random.default_rng(seed)
        columns = {"y": rng.integers(0, y_levels, n_rows),
                   "z": rng.integers(0, z_levels, n_rows)}
        for i, levels in enumerate(x_levels):
            columns[f"x{i}"] = rng.integers(0, levels, n_rows)
        table = Table(columns)
        blocks = [(f"x{i}",) for i in range(len(x_levels))]
        tester = _RecordingGTest()
        with mock.patch.object(gtest, "MAX_DENSE_CELLS", budget):
            results = tester._group_eval(table, ("y",), ("z",), blocks)
            stacked = tester.tensors[:]
            y_codes, n_y = table.discrete_codes("y")
            z_codes, n_z = table.discrete_codes("z")
            xs = [table.discrete_codes(names) for names in blocks]
            for (x_codes, n_x), result in zip(xs, results):
                assert result == tester._from_codes(x_codes, n_x, y_codes,
                                                    n_y, z_codes, n_z)

        # The stacks run cardinality by cardinality (first appearance),
        # members in query order; splitting never reorders them.
        order: dict[int, list[int]] = {}
        for j, (_, n_x) in enumerate(xs):
            if n_z * n_x * n_y <= budget:
                order.setdefault(n_x, []).append(j)
        expected = [fused_counts(xs[j][0], xs[j][1], y_codes, n_y,
                                 z_codes, n_z)
                    for members in order.values() for j in members]
        got = []
        for tensor in stacked:
            k = tensor.shape[0] // n_z
            assert k == 1 or tensor.size <= budget
            got.extend(np.split(tensor, k))
        assert len(got) == len(expected)
        for mine, reference in zip(got, expected):
            assert mine.dtype == reference.dtype
            np.testing.assert_array_equal(mine, reference)
