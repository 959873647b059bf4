"""Stream locks for the seed-discipline sweep (lint rule RL102).

The un-derived ``np.random.default_rng`` call sites in ``ci/`` were
replaced with ``repro.rng.as_generator``; these tests pin that the
replacement is bitwise identical, so cached p-values and published
numbers survive the refactor.
"""

import numpy as np

from repro.ci.kcit import KCIT
from repro.ci.rcit import median_bandwidth
from repro.data.table import Table
from repro.rng import as_generator


class TestAsGeneratorEquivalence:
    def test_identical_streams_for_int_seeds(self):
        # KCIT's subsample draw switched default_rng -> as_generator;
        # same seed must mean the same choice() stream.
        for seed in (0, 7, 12345):
            ours = as_generator(seed).choice(4000, size=500, replace=False)
            ref = np.random.default_rng(seed).choice(4000, size=500,
                                                     replace=False)
            np.testing.assert_array_equal(ours, ref)

    def test_kcit_subsample_is_deterministic(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=700)
        table = Table({"x": z + rng.normal(size=700),
                       "y": z + rng.normal(size=700), "z": z})
        tester = KCIT(max_samples=120, seed=5)
        first = tester.test(table, "x", "y", "z")
        second = tester.test(table, "x", "y", "z")
        assert (first.p_value, first.statistic) == \
               (second.p_value, second.statistic)


class TestMedianBandwidthFallback:
    def test_fallback_stream_matches_default_rng_zero(self):
        # The no-rng fallback draw is pinned to the default_rng(0) stream
        # (as_generator(0) is that stream by construction).
        matrix = np.random.default_rng(11).normal(size=(800, 2))
        assert median_bandwidth(matrix) == median_bandwidth(
            matrix, rng=np.random.default_rng(0))

    def test_small_inputs_skip_subsampling(self):
        matrix = np.random.default_rng(1).normal(size=(50, 2))
        assert median_bandwidth(matrix) == median_bandwidth(
            matrix, rng=np.random.default_rng(99))
