"""Tests for metrics, preprocessing, naive Bayes and importance."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.ml.importance import permutation_importance
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import accuracy, confusion_counts
from repro.ml.naive_bayes import GaussianNB
from repro.ml.preprocessing import StandardScaler


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_confusion_counts(self):
        cm = confusion_counts(np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0]))
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)
        assert cm.tpr == 0.5
        assert cm.fpr == 0.5

    def test_confusion_empty_groups(self):
        cm = confusion_counts(np.array([0, 0]), np.array([0, 0]))
        assert cm.tpr == 0.0  # no positives -> defined as 0


class TestStandardScaler:
    def test_transform_standardises(self):
        rng = np.random.default_rng(1)
        X = rng.normal(5.0, 3.0, size=(500, 2))
        Xs = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Xs.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Xs.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_safe(self):
        X = np.ones((10, 1))
        Xs = StandardScaler().fit_transform(X)
        assert np.isfinite(Xs).all()

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((2, 2)))


class TestNaiveBayes:
    def test_gaussian_blobs(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(-2, 1, (100, 2)), rng.normal(2, 1, (100, 2))])
        y = np.repeat([0, 1], 100)
        model = GaussianNB().fit(X, y)
        assert model.score(X, y) > 0.95

    def test_gaussian_probabilities_valid(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 3))
        y = (rng.random(50) < 0.5).astype(int)
        probs = GaussianNB().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestImportance:
    def make_model(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(1000, 3))
        y = (X[:, 0] > 0).astype(int)  # only feature 0 matters
        return LogisticRegression().fit(X, y), X, y

    def test_permutation_importance_identifies_signal(self):
        model, X, y = self.make_model()
        imp = permutation_importance(model, X, y, seed=0)
        assert imp[0] > 0.2
        assert abs(imp[1]) < 0.05
