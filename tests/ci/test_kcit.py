"""Tests for the exact kernel CI test (KCIT)."""

import numpy as np
import pytest

from repro.ci.kcit import KCIT, rbf_gram
from repro.ci.rcit import RCIT
from repro.data.table import Table
from repro.exceptions import CITestError


def nonlinear_table(n=400, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    x = np.sin(2.0 * z) + 0.3 * rng.normal(size=n)
    y = z ** 2 + 0.3 * rng.normal(size=n)
    w = rng.normal(size=n)
    return Table({"z": z, "x": x, "y": y, "w": w})


class TestGram:
    def test_diagonal_is_one(self):
        rng = np.random.default_rng(1)
        g = rbf_gram(rng.normal(size=(30, 2)), 1.0)
        np.testing.assert_allclose(np.diag(g), 1.0)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        g = rbf_gram(rng.normal(size=(40, 3)), 1.5)
        np.testing.assert_allclose(g, g.T)
        assert np.linalg.eigvalsh(g).min() > -1e-9


class TestKCIT:
    def test_detects_nonlinear_dependence(self):
        assert not KCIT(alpha=0.01).independent(nonlinear_table(), "x", "y")

    def test_conditioning_clears_confounder(self):
        assert KCIT(alpha=0.01).independent(nonlinear_table(), "x", "y", ["z"])

    def test_noise_is_independent(self):
        assert KCIT(alpha=0.01).independent(nonlinear_table(), "w", "x")

    def test_subsampling_large_input(self):
        t = nonlinear_table(n=1500)
        tester = KCIT(alpha=0.01, max_samples=300)
        assert not tester.independent(t, "x", "y")

    def test_invalid_max_samples(self):
        with pytest.raises(CITestError):
            KCIT(max_samples=2)

    @pytest.mark.parametrize("ridge", [0, 0.0, -1.0, float("nan")])
    def test_non_positive_ridge_rejected(self, ridge):
        # ridge=0 made the residual maker the zero matrix (p = 1.0 for
        # every conditional query); ridge=-1 returned arbitrary p-values.
        with pytest.raises(CITestError, match="ridge"):
            KCIT(ridge=ridge)

    @pytest.mark.parametrize("max_samples", [500, 100])
    @pytest.mark.parametrize("column", ["x", "y", "z"])
    def test_non_finite_column_named(self, column, max_samples):
        # A NaN used to come back as p = nan, thresholded as dependent;
        # the subsampled path must reject it even when the subsample
        # misses the bad row.
        t = nonlinear_table()
        values = np.array(t[column], dtype=float)
        values[3] = np.nan
        t = t.with_column(column, values)
        with pytest.raises(CITestError, match=f"'{column}'"):
            KCIT(max_samples=max_samples).test(t, "x", "y", ["z"])

    def test_agrees_with_rcit_on_clear_cases(self):
        """RCIT approximates KCIT: verdicts match when signal is strong.

        The marginal x--y dependence in ``nonlinear_table`` is too weak for
        a power comparison (RCIT sits right at the threshold), so agreement
        is checked on a strong direct edge, the conditional null, and pure
        noise.
        """
        t = nonlinear_table()
        direct = np.asarray(t["x"]) + 0.2 * np.random.default_rng(9).normal(
            size=t.n_rows)
        t = t.with_column("direct", direct)
        kcit = KCIT(alpha=0.01)
        rcit = RCIT(alpha=0.01, seed=0)
        for query in (("direct", "x", ()), ("x", "y", ("z",)),
                      ("w", "x", ()), ("direct", "x", ("z",))):
            x, y, z = query
            assert (kcit.independent(t, x, y, list(z))
                    == rcit.independent(t, x, y, list(z))), query

    def test_calibration_under_null(self):
        rejections = 0
        trials = 40
        for i in range(trials):
            rng = np.random.default_rng(4000 + i)
            t = Table({"a": rng.normal(size=200), "b": rng.normal(size=200)})
            if not KCIT(alpha=0.05).independent(t, "a", "b"):
                rejections += 1
        assert rejections / trials < 0.2
