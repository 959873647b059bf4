"""Gaussian naive Bayes classifier."""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_Xy


class GaussianNB(Classifier):
    """Gaussian naive Bayes with per-class feature means/variances."""

    def __init__(self, var_smoothing: float = 1e-9) -> None:
        self.var_smoothing = var_smoothing
        self.theta_: np.ndarray | None = None
        self.var_: np.ndarray | None = None
        self.class_prior_: np.ndarray | None = None

    def fit(self, X, y, sample_weight=None):
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        k, d = self.classes_.size, X.shape[1]
        self.theta_ = np.zeros((k, d))
        self.var_ = np.zeros((k, d))
        self.class_prior_ = np.zeros(k)
        for c in range(k):
            rows = X[encoded == c]
            self.class_prior_[c] = rows.shape[0] / X.shape[0]
            self.theta_[c] = rows.mean(axis=0)
            self.var_[c] = rows.var(axis=0)
        self.var_ += self.var_smoothing * X.var(axis=0).max() + 1e-12
        return self

    def predict_proba(self, X):
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        log_like = np.zeros((X.shape[0], self.classes_.size))
        for c in range(self.classes_.size):
            diff = X - self.theta_[c]
            log_like[:, c] = (
                -0.5 * np.sum(np.log(2.0 * np.pi * self.var_[c]))
                - 0.5 * np.sum(diff ** 2 / self.var_[c], axis=1)
                + np.log(self.class_prior_[c] + 1e-300)
            )
        log_like -= log_like.max(axis=1, keepdims=True)
        probs = np.exp(log_like)
        return probs / probs.sum(axis=1, keepdims=True)
