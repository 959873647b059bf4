"""ML substrate: classifiers, metrics, preprocessing (numpy-only)."""

from repro.ml.adaboost import AdaBoostClassifier
from repro.ml.base import Classifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.importance import (
    coefficient_importance,
    permutation_importance,
    rank_features,
)
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import (
    ConfusionCounts,
    accuracy,
    confusion_counts,
    log_loss,
    roc_auc,
)
from repro.ml.naive_bayes import GaussianNB
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "AdaBoostClassifier",
    "Classifier",
    "RandomForestClassifier",
    "coefficient_importance",
    "permutation_importance",
    "rank_features",
    "LogisticRegression",
    "ConfusionCounts",
    "accuracy",
    "confusion_counts",
    "log_loss",
    "roc_auc",
    "GaussianNB",
    "StandardScaler",
    "DecisionTreeClassifier",
]
