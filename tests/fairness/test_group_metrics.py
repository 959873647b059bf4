"""Tests for group fairness metrics."""

import numpy as np
import pytest

from repro.fairness.group_metrics import (
    absolute_odds_difference,
    demographic_parity_difference,
    equal_opportunity_difference,
)


def perfect_parity():
    """Identical behaviour in both groups."""
    y_true = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    y_pred = np.array([1, 0, 0, 0, 1, 0, 0, 0])
    s = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    return y_true, y_pred, s


def maximal_disparity():
    """Privileged group all predicted positive, unprivileged all negative."""
    y_true = np.array([1, 0, 1, 0])
    y_pred = np.array([1, 1, 0, 0])
    s = np.array([1, 1, 0, 0])
    return y_true, y_pred, s


class TestAbsoluteOddsDifference:
    def test_zero_under_parity(self):
        y, p, s = perfect_parity()
        assert absolute_odds_difference(y, p, s) == 0.0

    def test_maximal_disparity(self):
        y, p, s = maximal_disparity()
        assert absolute_odds_difference(y, p, s) == 1.0

    def test_empty_group_returns_zero(self):
        y = np.array([1, 0])
        p = np.array([1, 0])
        s = np.array([1, 1])  # no unprivileged members
        assert absolute_odds_difference(y, p, s) == 0.0

    def test_symmetric_in_group_labels(self):
        y, p, s = maximal_disparity()
        assert absolute_odds_difference(y, p, s, privileged=1) == \
            absolute_odds_difference(y, p, 1 - s, privileged=0)

    def test_known_value(self):
        # priv: TPR=1, FPR=0; unpriv: TPR=0, FPR=0 -> 0.5*(0+1) = 0.5
        y = np.array([1, 0, 1, 0])
        p = np.array([1, 0, 0, 0])
        s = np.array([1, 1, 0, 0])
        assert absolute_odds_difference(y, p, s) == 0.5


class TestDemographicParity:
    def test_zero_when_rates_equal(self):
        p = np.array([1, 0, 1, 0])
        s = np.array([1, 1, 0, 0])
        assert demographic_parity_difference(p, s) == 0.0

    def test_known_gap(self):
        p = np.array([1, 1, 1, 0])
        s = np.array([1, 1, 0, 0])
        assert demographic_parity_difference(p, s) == pytest.approx(0.5)


class TestEqualOpportunity:
    def test_only_tpr_matters(self):
        # Equal TPR, different FPR -> EO diff 0 but odds diff > 0.
        y = np.array([1, 0, 1, 0])
        p = np.array([1, 1, 1, 0])
        s = np.array([1, 1, 0, 0])
        assert equal_opportunity_difference(y, p, s) == 0.0
        assert absolute_odds_difference(y, p, s) == 0.5
