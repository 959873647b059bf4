"""Tests for the discrete G-test / chi-squared CI tests."""

import numpy as np
import pytest

from repro.ci.gtest import ChiSquaredCI, GTestCI
from repro.data.table import Table


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
