"""Tests for the RCIT randomized conditional independence test."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats

import repro

from repro.ci.adaptive import AdaptiveCI
from repro.ci.fisher_z import FisherZCI
from repro.ci.gtest import _chi2_sf
from repro.ci.rcit import (RCIT, RIT, _gamma_pvalue, _gamma_sf,
                           _upper_distances, median_bandwidth,
                           random_fourier_features, rff_draw)
from repro.data.table import Table
from repro.exceptions import CITestError

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    given = None


def nonlinear_table(n=1500, seed=0):
    """z -> x, z -> y via *nonlinear* links (defeats plain correlation)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    x = np.cos(2.0 * z) + 0.3 * rng.normal(size=n)
    y = np.abs(z) + 0.3 * rng.normal(size=n)
    w = rng.normal(size=n)
    direct = x ** 2 + 0.3 * rng.normal(size=n)
    return Table({"z": z, "x": x, "y": y, "w": w, "direct": direct})


class TestHelpers:
    def test_median_bandwidth_positive(self):
        rng = np.random.default_rng(0)
        assert median_bandwidth(rng.normal(size=(100, 3))) > 0

    def test_median_bandwidth_constant_input(self):
        assert median_bandwidth(np.zeros((50, 2))) == 1.0

    def test_median_bandwidth_row_order_invariant(self):
        """Regression: without an rng the subsample used to be the *first*
        ``max_points`` rows, so a sorted table got a bandwidth estimated
        from a narrow slice of the data range.  The seeded random
        subsample must agree between sorted and shuffled row orders (both
        are unbiased draws), and with the full-data median."""
        rng = np.random.default_rng(0)
        values = 3.0 * rng.normal(size=(5000, 1))
        shuffled = median_bandwidth(values, max_points=400)
        sorted_rows = median_bandwidth(np.sort(values, axis=0),
                                       max_points=400)
        full = median_bandwidth(values, max_points=5000)
        assert sorted_rows == pytest.approx(shuffled, rel=0.2)
        assert sorted_rows == pytest.approx(full, rel=0.2)
        # The old first-rows fallback failed this by a wide margin: the
        # lowest 8% of a sorted normal sample spans a fraction of σ.
        first_rows = median_bandwidth(np.sort(values, axis=0)[:400],
                                      max_points=400)
        assert first_rows < 0.5 * full

    def test_median_bandwidth_deterministic_without_rng(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(2000, 2))
        assert median_bandwidth(values) == median_bandwidth(values)

    def test_rff_shape_and_range(self):
        rng = np.random.default_rng(1)
        feats = random_fourier_features(rng.normal(size=(80, 2)), 25, 1.0, rng)
        assert feats.shape == (80, 25)
        bound = np.sqrt(2.0 / 25) + 1e-9
        assert np.all(np.abs(feats) <= bound)

    def test_rff_map_in_place_bitwise_equals_expression(self):
        """The in-place map computes exactly the out-of-place expression,
        on 2-D blocks and on the fused 3-D stacks."""
        rng = np.random.default_rng(2)
        block = rng.normal(size=(300, 3))
        frequencies, phases = rff_draw(rng, 3, 7, 1.3)
        expected = np.sqrt(2.0 / 7) * np.cos(block @ frequencies + phases)
        assert (RCIT._rff_map(block, frequencies, phases, 7).tobytes()
                == expected.tobytes())
        stack = rng.normal(size=(4, 300, 2))
        frequencies = rng.normal(size=(4, 2, 5))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(4, 1, 5))
        expected = np.sqrt(2.0 / 5) * np.cos(np.matmul(stack, frequencies)
                                             + phases)
        assert (RCIT._rff_map(stack, frequencies, phases, 5).tobytes()
                == expected.tobytes())


def reference_bandwidth(matrix, seed):
    """The median heuristic as the plain formula: every pairwise squared
    distance, the strict upper triangle, ``np.median``."""
    n = matrix.shape[0]
    if n > 500:
        rng = np.random.default_rng(seed)
        matrix = matrix[rng.choice(n, size=500, replace=False)]
    sq = np.sum(matrix ** 2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * matrix @ matrix.T,
                    0.0)
    upper = d2[np.triu_indices_from(d2, k=1)]
    med = float(np.sqrt(np.median(upper))) if upper.size else 1.0
    return med if med > 1e-12 else 1.0


class TestMedianBandwidthBitwise:
    """One partition over a cached triangle gives exactly the bits of the
    ``np.median`` formula, on both sides of ``max_points``."""

    @staticmethod
    def both(matrix, seed):
        with np.errstate(all="ignore"):
            return (median_bandwidth(matrix,
                                     rng=np.random.default_rng(seed)),
                    reference_bandwidth(matrix, seed))

    @pytest.mark.parametrize("n_rows", [499, 500, 501, 700])
    def test_odd_and_even_triangles(self, n_rows):
        # 499 rows: N = 124,251 pairs (odd); 500 and every subsample:
        # N = 124,750 (even).
        matrix = np.random.default_rng(n_rows).normal(size=(n_rows, 2))
        ours, reference = self.both(matrix, seed=3)
        assert ours == reference

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_fall_back_to_one(self, bad):
        matrix = np.random.default_rng(0).normal(size=(300, 3))
        matrix[17] = bad
        assert self.both(matrix, seed=0) == (1.0, 1.0)

    def test_triangle_memo_is_read_only(self):
        matrix = np.random.default_rng(1).normal(size=(40, 2))
        median_bandwidth(matrix)
        from repro.ci.rcit import _upper_triangle
        assert not _upper_triangle(40).flags.writeable

    if given is not None:
        @settings(max_examples=60, deadline=None)
        @given(n_rows=st.integers(min_value=1, max_value=700),
               n_cols=st.integers(min_value=1, max_value=6),
               seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
               scale=st.sampled_from([1e-6, 1.0, 1e3]),
               ties=st.booleans(), constant=st.booleans(),
               bad=st.sampled_from([None, np.nan, np.inf, -np.inf]))
        @example(n_rows=499, n_cols=1, seed=0, scale=1.0, ties=False,
                 constant=False, bad=None)
        @example(n_rows=600, n_cols=6, seed=1, scale=1.0, ties=True,
                 constant=True, bad=None)
        def test_bitwise_equal_to_median_formula(self, n_rows, n_cols, seed,
                                                 scale, ties, constant, bad):
            rng = np.random.default_rng(seed)
            matrix = scale * rng.normal(size=(n_rows, n_cols))
            if ties:  # a rounded column: a handful of levels, heavy ties
                matrix[:, 0] = np.round(matrix[:, 0] / scale)
            if constant:
                matrix[:, -1] = 2.5
            if bad is not None:
                matrix[rng.integers(n_rows)] = bad
            ours, reference = self.both(matrix, seed)
            assert ours == reference


class TestSingleColumnDistancesBitwise:
    """A single-column block's triangle-only distances give exactly the
    bits of the strict upper triangle of the ``(2 M) @ M.T`` formula:
    distances and bandwidth alike, non-finite rows included."""

    if given is not None:
        @settings(max_examples=80, deadline=None)
        @given(n_rows=st.integers(min_value=1, max_value=600),
               seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
               scale=st.sampled_from([1e-6, 1.0, 1e3, 1e200]),
               ties=st.booleans(),
               bad=st.sampled_from([None, np.nan, np.inf, -np.inf]))
        @example(n_rows=500, seed=0, scale=1.0, ties=False, bad=np.nan)
        @example(n_rows=3, seed=0, scale=1.0, ties=False, bad=-np.inf)
        def test_triangle_equals_matmul(self, n_rows, seed, scale, ties,
                                        bad):
            rng = np.random.default_rng(seed)
            matrix = scale * rng.normal(size=(n_rows, 1))
            if ties:
                matrix = np.round(matrix / scale)
            if bad is not None:
                matrix[rng.integers(n_rows)] = bad
            with np.errstate(all="ignore"):
                sq = np.sum(matrix ** 2, axis=1)
                full = sq[:, None] + sq[None, :] - 2.0 * matrix @ matrix.T
                want = full[np.triu_indices(n_rows, k=1)]
                got = _upper_distances(matrix)
                assert got.shape == want.shape
                np.testing.assert_array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
                ours = median_bandwidth(matrix,
                                        rng=np.random.default_rng(seed))
                assert ours == reference_bandwidth(matrix, seed)


def reference_gamma_pvalue(statistic, weights):
    """The gamma tail through ``scipy.stats.gamma.sf``."""
    weights = weights[weights > 1e-14]
    if weights.size == 0:
        return 1.0
    mean = float(weights.sum())
    var = float(2.0 * (weights ** 2).sum())
    if var <= 0:
        return 1.0
    return float(stats.gamma.sf(statistic, a=mean ** 2 / var,
                                scale=var / mean))


class TestGammaTail:
    @pytest.mark.parametrize("statistic",
                             [0.0, 5e-324, 1e-300, 1e-9, 0.37, 12.5, 1e6,
                              np.inf])
    @pytest.mark.parametrize("weights", [
        [0.3, 0.2, 0.05],
        [1e150, 3e149],           # extreme scale, large
        [2e-14, 5e-14, 1e-13],    # extreme scale, just above the cutoff
        [0.9] + [1e-12] * 40,     # shape far from scale
    ])
    def test_equals_scipy_gamma_sf(self, statistic, weights):
        weights = np.asarray(weights)
        assert (_gamma_pvalue(statistic, weights)
                == reference_gamma_pvalue(statistic, weights))

    def test_boundary_values(self):
        weights = np.array([0.4, 0.1])
        assert _gamma_pvalue(0.0, weights) == 1.0
        assert _gamma_pvalue(np.inf, weights) == 0.0
        assert _gamma_pvalue(3.0, np.array([1e-15])) == 1.0

    def test_random_cases_equal_scipy_gamma_sf(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            weights = rng.exponential(size=rng.integers(1, 30)) \
                * 10.0 ** rng.uniform(-10, 10)
            statistic = float(rng.exponential() * weights.sum()
                              * rng.uniform(0, 3))
            assert (_gamma_pvalue(statistic, weights)
                    == reference_gamma_pvalue(statistic, weights))


#: Statistics at the edges of the tails' domains: zero, subnormal, tiny,
#: infinite, and just below zero, where the special functions return NaN
#: and the scipy.stats tails return 1.
EDGE_STATISTICS = (0.0, 5e-324, 1e-300, np.inf, -0.0, -1e-300, -2.5)


class TestSpecialTails:
    """The ``scipy.special`` tails equal the ``scipy.stats`` calls they
    replaced, bit for bit, so ``_DERIVATION`` stays and stores written
    before them stay valid."""

    if given is not None:
        @settings(max_examples=300, deadline=None)
        @given(statistic=st.floats(allow_nan=False),
               dof=st.integers(min_value=1, max_value=10 ** 5))
        @example(statistic=-1e-15, dof=1)
        def test_chi2_equals_scipy_stats(self, statistic, dof):
            assert _chi2_sf(statistic, dof) == stats.chi2.sf(statistic, dof)

        @settings(max_examples=300, deadline=None)
        @given(z=st.floats(allow_nan=False))
        def test_norm_equals_scipy_stats(self, z):
            assert special.ndtr(-z) == stats.norm.sf(z)

        @settings(max_examples=300, deadline=None)
        @given(statistic=st.floats(allow_nan=False),
               shape=st.floats(min_value=1e-6, max_value=1e6),
               scale=st.floats(min_value=1e-10, max_value=1e10))
        @example(statistic=-1e-17, shape=2.0, scale=0.5)
        def test_gamma_equals_scipy_stats(self, statistic, shape, scale):
            with np.errstate(over="ignore"):  # statistic / scale -> inf
                want = stats.gamma.sf(statistic, a=shape, scale=scale)
            assert _gamma_sf(statistic, shape, scale) == want

    @pytest.mark.parametrize("statistic", EDGE_STATISTICS)
    def test_edge_statistics(self, statistic):
        assert _chi2_sf(statistic, 3) == stats.chi2.sf(statistic, 3)
        assert special.ndtr(-statistic) == stats.norm.sf(statistic)
        assert _gamma_sf(statistic, 2.0, 0.5) == stats.gamma.sf(
            statistic, a=2.0, scale=0.5)

    def test_vectorised_chi2_equals_scipy_stats(self):
        """The G-test's group kernel calls the tail once per group."""
        rng = np.random.default_rng(4)
        statistics = np.concatenate([
            rng.exponential(size=5000) * 10.0 ** rng.uniform(-6, 3, 5000),
            EDGE_STATISTICS])
        dofs = rng.integers(1, 500, statistics.size)
        assert np.array_equal(_chi2_sf(statistics, dofs),
                              stats.chi2.sf(statistics, dofs))

    def test_importing_repro_leaves_scipy_stats_unloaded(self):
        """Importing ``scipy.stats`` costs more than a small run, and
        nothing in the package needs it."""
        probe = ("import sys, repro, repro.experiments.table2; "
                 "print('scipy.stats' in sys.modules)")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "False"


def null_table(n=300, seed=0, bad_column=None, bad=np.nan):
    """``x ⊥ y | z`` on a 300-row table, optionally with one bad cell."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    data = {"z": z, "x": z + rng.normal(size=n), "y": z + rng.normal(size=n)}
    if bad_column is not None:
        data[bad_column][5] = bad
    return Table(data)


class TestInputValidation:
    @pytest.mark.parametrize("ridge", [0, 0.0, -1.0, float("nan")])
    def test_non_positive_ridge_rejected(self, ridge):
        # ridge=0 used to construct and then fail every conditional query
        # inside the Cholesky factorisation.
        with pytest.raises(CITestError, match="ridge"):
            RCIT(ridge=ridge)

    @pytest.mark.parametrize("column", ["x", "y", "z"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_named(self, column, bad):
        # NaN used to surface as LinAlgError (in X) or a scipy ValueError
        # (in Z).
        table = null_table(bad_column=column, bad=bad)
        for tester in (RCIT(seed=0), AdaptiveCI(seed=0), FisherZCI()):
            with pytest.raises(CITestError, match=f"'{column}'"):
                tester.test(table, "x", "y", ["z"])

    def test_rit_ignores_non_finite_conditioning_column(self):
        # RIT drops Z, so a bad Z column is never read.
        table = null_table(bad_column="z")
        assert RIT(seed=0).test(table, "x", "y", ["z"]).p_value >= 0.0

    def test_finite_data_unaffected(self):
        table = null_table()
        assert RCIT(seed=0).test(table, "x", "y", ["z"]).independent

    def test_each_column_scanned_once_per_table(self, monkeypatch):
        table = null_table()
        scans = []
        original = Table._float_chunk

        def counting(self, name, window):
            scans.append(name)
            return original(self, name, window)

        monkeypatch.setattr(Table, "_float_chunk", counting)
        tester = RCIT(seed=0)
        tester.test_batch(table, [("x", "y", ["z"]), (("x", "z"), "y")])
        tester.test_batch(table, [("z", "y", ["x"])])
        tester.test(table, "x", "y", ["z"])
        assert sorted(scans) == ["x", "y", "z"]


class TestRCITVerdicts:
    def test_nonlinear_confounding_detected_marginally(self):
        tester = RCIT(alpha=0.01, seed=0)
        assert not tester.independent(nonlinear_table(), "x", "y")

    def test_conditioning_on_confounder_clears(self):
        tester = RCIT(alpha=0.01, seed=0)
        assert tester.independent(nonlinear_table(), "x", "y", ["z"])

    def test_direct_nonlinear_edge_survives_conditioning(self):
        tester = RCIT(alpha=0.01, seed=0)
        assert not tester.independent(nonlinear_table(), "direct", "x", ["z"])

    def test_pure_noise_independent(self):
        tester = RCIT(alpha=0.01, seed=0)
        assert tester.independent(nonlinear_table(), "w", "x")
        assert tester.independent(nonlinear_table(), "w", "y", ["z"])

    def test_group_query(self):
        tester = RCIT(alpha=0.01, seed=0)
        t = nonlinear_table()
        assert not tester.independent(t, ["w", "direct"], "x", ["z"])

    def test_deterministic_under_seed(self):
        t = nonlinear_table()
        p1 = RCIT(seed=42).test(t, "x", "y").p_value
        p2 = RCIT(seed=42).test(t, "x", "y").p_value
        assert p1 == p2


class TestRIT:
    def test_rit_ignores_conditioning(self):
        t = nonlinear_table()
        # RIT with Z should equal RCIT with no Z (same seed).
        p_rit = RIT(seed=3).test(t, "x", "y", ["z"]).p_value
        p_marg = RCIT(seed=3).test(t, "x", "y").p_value
        assert p_rit == pytest.approx(p_marg)


class TestCalibration:
    def test_false_positive_rate_bounded(self):
        rejections = 0
        trials = 100
        for i in range(trials):
            rng = np.random.default_rng(3000 + i)
            t = Table({"a": rng.normal(size=400), "b": rng.normal(size=400),
                       "z": rng.normal(size=400)})
            if not RCIT(alpha=0.05, seed=i).independent(t, "a", "b", ["z"]):
                rejections += 1
        assert rejections / trials < 0.15
