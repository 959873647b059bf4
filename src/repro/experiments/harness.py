"""Experiment harness: run one (dataset, selector, classifier) config.

One code path for every method in Figure 2: select features on the train
split, train the classifier on ``A ∪ selected`` (with repair/reweighing
sample weights when the baseline provides them), evaluate accuracy and
fairness on the test split.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ci.store import ExperimentStore
from repro.core.result import SelectionResult
from repro.data.loaders.base import Dataset
from repro.fairness.report import FairnessReport, evaluate_classifier
from repro.ml.base import Classifier
from repro.ml.logistic import LogisticRegression
from repro.ml.preprocessing import StandardScaler

ClassifierFactory = Callable[[], Classifier]


@dataclass
class MethodRun:
    """Everything produced by one harness run.

    ``warm_seconds`` is the time spent pre-building the CI engine's caches
    before selection started; ``selection.seconds`` does not include it, so
    timing analyses can account for (or disable) the warm-up explicitly.
    """

    report: FairnessReport
    selection: SelectionResult
    model: Classifier
    feature_names: list[str]
    warm_seconds: float = 0.0


def default_classifier() -> Classifier:
    """The paper's default: logistic regression."""
    return LogisticRegression(max_iter=100)


def _make_tree() -> Classifier:
    from repro.ml.tree import DecisionTreeClassifier

    return DecisionTreeClassifier(max_depth=8)


def _make_forest() -> Classifier:
    from repro.ml.forest import RandomForestClassifier

    return RandomForestClassifier(n_estimators=20, max_depth=8, seed=0)


def _make_nb() -> Classifier:
    from repro.ml.naive_bayes import GaussianNB

    return GaussianNB()


#: Classifier factories addressable by name — how the suite driver (and
#: the CLI) pick a model inside a worker process without shipping
#: unpicklable factory closures across the pool boundary.
CLASSIFIERS: dict[str, ClassifierFactory] = {
    "logistic": default_classifier,
    "tree": _make_tree,
    "forest": _make_forest,
    "nb": _make_nb,
}


def classifier_by_name(name: str) -> ClassifierFactory:
    """Look up a classifier factory from :data:`CLASSIFIERS`."""
    if name not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {name!r}; "
                         f"choose from {sorted(CLASSIFIERS)}")
    return CLASSIFIERS[name]


def run_method(dataset: Dataset, selector,
               classifier_factory: ClassifierFactory | None = None,
               privileged: int | None = None,
               store: ExperimentStore | str | os.PathLike | None = None
               ) -> MethodRun:
    """Select, train, and evaluate one method on one dataset.

    Before a selection runs, the CI engine's shared encoded state (table
    fingerprint, float columns, discrete codes) is pre-built for every
    column a selector can query, so the selection phase starts from warm
    caches instead of re-materialising columns per CI test.

    ``store`` (an open :class:`~repro.ci.store.ExperimentStore` or a root
    path) is the one cross-run cache: the selector's CI queries go to the
    store's CI cache namespace named after the selector's lowercased
    ``name`` (so sibling selectors land in sibling namespaces and
    cold-run counts stay comparable), and the finished selection
    itself is memoised on ``(table fingerprint, selector config digest,
    tester cache_token)`` — a warm rerun skips selection entirely and
    reports the recorded cold-run ``n_ci_tests``.  The namespace cache is
    attached only for the call, so the selector's own ``cache`` setting
    is unchanged afterwards.  Selectors without a ``config_digest`` (the
    tuple-repair baselines) run uncached, so one store can serve a whole
    mixed-method suite.
    """
    factory = classifier_factory or default_classifier
    problem = dataset.problem()
    warm_seconds = 0.0

    def warm():
        # Deferred behind the selection-memo probe: a memoised selection
        # runs zero CI tests, so pre-encoding every column would be pure
        # waste exactly on the warm reruns the store exists to speed up.
        nonlocal warm_seconds
        warm_start = time.perf_counter()
        problem.table.warm_cache(problem.sensitive + problem.admissible
                                 + problem.candidates + [problem.target])
        warm_seconds = time.perf_counter() - warm_start

    if store is not None:
        if not isinstance(store, ExperimentStore):
            store = ExperimentStore(store)
        try:
            if callable(getattr(selector, "config_digest", None)) \
                    and hasattr(selector, "cache"):
                selection = store.cached_select(selector, problem,
                                                on_miss=warm)
            else:
                warm()
                selection = selector.select(problem)
        finally:
            # Saved even when selection dies mid-run: every CI verdict
            # already computed into the namespace caches survives, so an
            # interrupted sweep resumes instead of restarting.
            store.save()
    else:
        warm()
        selection = selector.select(problem)
    features = problem.training_features(selection.selected)

    scaler = StandardScaler()
    X_train = scaler.fit_transform(dataset.train.matrix(features))
    y_train = np.asarray(dataset.train[problem.target])

    sample_weight = None
    weight_fn = getattr(selector, "training_weights", None)
    if callable(weight_fn):
        sample_weight = weight_fn(problem)

    model = factory()
    model.fit(X_train, y_train, sample_weight=sample_weight)

    scaled_model = _ScaledModel(model, scaler)
    report = evaluate_classifier(
        scaled_model, dataset.test, features, problem.target,
        problem.sensitive, problem.admissible,
        privileged=dataset.privileged if privileged is None else privileged,
        method=selection.algorithm,
    )
    return MethodRun(report=report, selection=selection, model=scaled_model,
                     feature_names=features, warm_seconds=warm_seconds)


class _ScaledModel:
    """Classifier plus its fitted scaler, exposed as one predictor."""

    def __init__(self, model: Classifier, scaler: StandardScaler) -> None:
        self._model = model
        self._scaler = scaler

    @property
    def classes_(self):
        return self._model.classes_

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._model.predict(self._scaler.transform(X))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._model.predict_proba(self._scaler.transform(X))

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return self._model.score(self._scaler.transform(X), y)
