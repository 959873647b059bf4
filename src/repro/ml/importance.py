"""Feature importance: permutation importances.

Used by the SPred baseline (drop features most predictive of the sensitive
attribute) and by the paper's check that phase-2 features (C2) still carry
non-zero importance in the trained classifier.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier
from repro.rng import SeedLike, as_generator


def permutation_importance(model: Classifier, X: np.ndarray, y: np.ndarray,
                           n_repeats: int = 5, seed: SeedLike = None
                           ) -> np.ndarray:
    """Accuracy drop when each column is shuffled, averaged over repeats.

    Model-agnostic; negative values (shuffling helped) are reported as-is so
    callers can detect uninformative features.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    rng = as_generator(seed)
    baseline = model.score(X, y)
    importances = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        drops = []
        for _ in range(n_repeats):
            shuffled = X.copy()
            shuffled[:, j] = shuffled[rng.permutation(X.shape[0]), j]
            drops.append(baseline - model.score(shuffled, y))
        importances[j] = float(np.mean(drops))
    return importances
