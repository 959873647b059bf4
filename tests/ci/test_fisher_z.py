"""Tests for the Fisher-z partial-correlation CI test."""

import numpy as np
import pytest

from repro.ci.fisher_z import FisherZCI, partial_correlation
from repro.data.table import Table
from repro.exceptions import CITestError


def gaussian_table(n=2000, seed=0):
    """z -> x, z -> y: x ⊥ y | z but x correlated with y."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    x = 1.5 * z + rng.normal(size=n)
    y = -1.0 * z + rng.normal(size=n)
    w = rng.normal(size=n)  # independent of everything
    direct = 0.8 * x + rng.normal(size=n)  # direct child of x
    return Table({"z": z, "x": x, "y": y, "w": w, "direct": direct})


class TestPartialCorrelation:
    def test_marginal_is_pearson(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=5000)
        b = 0.5 * a + rng.normal(size=5000)
        r = partial_correlation(a, b, None)
        expected = np.corrcoef(a, b)[0, 1]
        assert abs(r - expected) < 1e-9

    def test_conditioning_removes_confounded_correlation(self):
        t = gaussian_table()
        r_marg = partial_correlation(t["x"], t["y"], None)
        r_cond = partial_correlation(t["x"], t["y"],
                                     t.matrix(["z"]))
        assert abs(r_marg) > 0.3
        assert abs(r_cond) < 0.05

    def test_constant_column_gives_zero(self):
        assert partial_correlation(np.ones(50), np.arange(50.0), None) == 0.0


class TestFisherZ:
    def test_confounder_pattern(self):
        tester = FisherZCI(alpha=0.01)
        t = gaussian_table()
        assert not tester.independent(t, "x", "y")
        assert tester.independent(t, "x", "y", ["z"])

    def test_direct_dependence_survives_conditioning(self):
        tester = FisherZCI(alpha=0.01)
        t = gaussian_table()
        assert not tester.independent(t, "direct", "x", ["z"])

    def test_independent_feature(self):
        tester = FisherZCI(alpha=0.01)
        assert tester.independent(gaussian_table(), "w", "x")

    def test_group_semantics(self):
        tester = FisherZCI(alpha=0.01)
        t = gaussian_table()
        # Group {w, direct}: dependent on x because direct is.
        assert not tester.independent(t, ["w", "direct"], "x")

    def test_insufficient_samples_raise(self):
        rng = np.random.default_rng(2)
        t = Table({f"c{i}": rng.normal(size=6) for i in range(5)})
        tester = FisherZCI()
        with pytest.raises(CITestError, match="samples"):
            tester.test(t, "c0", "c1", ["c2", "c3", "c4"])

    def test_calibration_under_null(self):
        tester = FisherZCI(alpha=0.05)
        rejections = 0
        trials = 200
        for i in range(trials):
            rng = np.random.default_rng(2000 + i)
            t = Table({"a": rng.normal(size=300), "b": rng.normal(size=300)})
            if not tester.independent(t, "a", "b"):
                rejections += 1
        assert rejections / trials < 0.12


def linear_conditional_null(rng, n, n_z):
    """Linear-Gaussian X and Y that each depend on Z, with X ⊥ Y | Z."""
    z = rng.normal(size=(n, n_z))
    columns = {f"z{i}": z[:, i] for i in range(n_z)}
    columns["x"] = z @ rng.normal(size=n_z) + rng.normal(size=n)
    columns["y"] = z @ rng.normal(size=n_z) + rng.normal(size=n)
    return Table(columns)


@pytest.mark.parametrize("n_z", [1, 3])
def test_conditional_null_rate_in_binomial_band(n_z):
    """Type-I rate at alpha = 0.05 on a true conditional null, n = 500:
    400 seeded trials, rejections inside the two-sided binomial band
    [7, 35] around the mean of 20."""
    tester = FisherZCI(alpha=0.05)
    given = [f"z{i}" for i in range(n_z)]
    rejections = sum(
        not tester.test(linear_conditional_null(
            np.random.default_rng([n_z, trial]), 500, n_z),
            "x", "y", given).independent
        for trial in range(400))
    assert 7 <= rejections <= 35


def reference_fisher_z(x, y, z, alpha=0.01):
    """The pre-refactor implementation: one lstsq per (i, j) pair."""
    from scipy import stats

    n = x.shape[0]
    k = 0 if z is None else z.shape[1]
    dof = n - k - 3
    best_p, best_stat = 1.0, 0.0
    n_pairs = x.shape[1] * y.shape[1]
    for i in range(x.shape[1]):
        for j in range(y.shape[1]):
            r = partial_correlation(x[:, i], y[:, j], z)
            stat = abs(np.arctanh(r)) * np.sqrt(dof)
            p = 2.0 * stats.norm.sf(stat)
            if p < best_p:
                best_p, best_stat = p, stat
    return min(1.0, best_p * n_pairs), best_stat


class TestStackedSolveParity:
    """The single stacked solve must reproduce the per-pair lstsq loop."""

    def cases(self, t):
        return [
            (["x"], ["y"], ["z"]),
            (["x", "w"], ["y"], ["z"]),
            (["x", "w", "direct"], ["y", "z"], None),
            (["w", "direct"], ["x", "y"], ["z"]),
        ]

    def test_identical_p_values(self):
        t = gaussian_table()
        tester = FisherZCI()
        for xs, ys, zs in self.cases(t):
            x = t.matrix(xs)
            y = t.matrix(ys)
            z = t.matrix(zs) if zs else None
            want_p, want_stat = reference_fisher_z(x, y, z)
            got_p, got_stat = tester._test(x, y, z)
            assert got_p == pytest.approx(want_p, rel=1e-9, abs=1e-300)
            assert got_stat == pytest.approx(want_stat, rel=1e-9)

    def test_full_result_parity_through_public_api(self):
        t = gaussian_table()
        tester = FisherZCI(alpha=0.05)
        for xs, ys, zs in self.cases(t):
            result = tester.test(t, xs, ys, list(zs) if zs else ())
            want_p, _ = reference_fisher_z(
                t.matrix(xs), t.matrix(ys), t.matrix(zs) if zs else None)
            want_p = min(max(want_p, 0.0), 1.0)
            assert result.p_value == pytest.approx(want_p, rel=1e-9,
                                                   abs=1e-300)
            assert result.independent == (result.p_value >= 0.05)

    def test_degenerate_constant_column(self):
        """A constant X column must yield r = 0 on both paths."""
        rng = np.random.default_rng(5)
        n = 200
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.normal(size=(n, 1))
        want = reference_fisher_z(x, y, None)
        got = FisherZCI()._test(x, y, None)
        assert got[0] == pytest.approx(want[0], rel=1e-9)
