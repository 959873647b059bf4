"""Classification metrics: accuracy and confusion counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact matches."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot score empty arrays")
    return float(np.mean(y_true == y_pred))


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion-matrix cells (positive class given explicitly)."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def tpr(self) -> float:
        """True positive rate (recall); 0 when no positives exist."""
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def fpr(self) -> float:
        """False positive rate; 0 when no negatives exist."""
        denom = self.fp + self.tn
        return self.fp / denom if denom else 0.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray,
                     positive=1) -> ConfusionCounts:
    """Binary confusion counts with an explicit positive label."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    pos_t = y_true == positive
    pos_p = y_pred == positive
    return ConfusionCounts(
        tp=int(np.sum(pos_t & pos_p)),
        fp=int(np.sum(~pos_t & pos_p)),
        tn=int(np.sum(~pos_t & ~pos_p)),
        fn=int(np.sum(pos_t & ~pos_p)),
    )
