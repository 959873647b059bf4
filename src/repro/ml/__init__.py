"""ML substrate: classifiers, metrics, preprocessing (numpy-only)."""

from repro.ml.adaboost import AdaBoostClassifier
from repro.ml.base import Classifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.importance import permutation_importance
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import (
    ConfusionCounts,
    accuracy,
    confusion_counts,
)
from repro.ml.naive_bayes import GaussianNB
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "AdaBoostClassifier",
    "Classifier",
    "RandomForestClassifier",
    "permutation_importance",
    "LogisticRegression",
    "ConfusionCounts",
    "accuracy",
    "confusion_counts",
    "GaussianNB",
    "StandardScaler",
    "DecisionTreeClassifier",
]
