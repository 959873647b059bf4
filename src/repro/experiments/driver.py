"""Process-parallel experiment driver: suites of (dataset × selector ×
classifier) legs over one shared :class:`~repro.ci.store.ExperimentStore`.

The CI engine already shards *test batches* across processes
(:class:`~repro.ci.executor.ProcessExecutor`); this module parallelises
one level up — whole experiment legs run in worker processes when the
caller asks for more than one job, and inline otherwise.  Workers start
by the interpreter's default multiprocessing start method.  A leg is a
picklable :class:`ExperimentLeg` *spec* (names and scalars only: dataset
loader key, algorithm, classifier, tester/subset-strategy names, seed);
each worker materialises the dataset/selector/classifier from the spec,
runs it through :func:`~repro.experiments.harness.run_method`, and ships
back a :class:`LegOutcome` (fairness report + selection provenance).

**Store discipline**: every worker opens its *own*
:class:`~repro.ci.store.ExperimentStore` instance on the shared root.
That is safe by construction — each save appends its new records to the
store's log under the directory lock, so interleaved savers never lose
committed entries — and keeps the suite's cost accounting honest: legs
land in per-selector namespaces, so e.g. GrpSel can never answer
SeqSel's queries on a cold run, and a warm rerun of the whole suite
executes zero CI tests while reporting the recorded cold-run counts.

Failures follow the executor error contract's shape: a crashed leg
surfaces as :class:`~repro.exceptions.ExperimentError` naming the leg,
never as a bare pool exception.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.ci import default_tester
from repro.ci.store import ExperimentStore
from repro.core.grpsel import GrpSel
from repro.core.result import SelectionResult
from repro.core.seqsel import SeqSel
from repro.core.subset_search import strategy_by_name
from repro.data.loaders import LOADERS
from repro.exceptions import ExperimentError
from repro.experiments.harness import classifier_by_name, run_method
from repro.fairness.report import FairnessReport

#: Selector constructors the driver can instantiate inside a worker.
SELECTORS: dict[str, Callable] = {
    "seqsel": lambda tester, strategy, seed, executor: SeqSel(
        tester=tester, subset_strategy=strategy, executor=executor),
    "grpsel": lambda tester, strategy, seed, executor: GrpSel(
        tester=tester, subset_strategy=strategy, seed=seed,
        executor=executor),
}


@dataclass(frozen=True)
class ExperimentLeg:
    """One picklable experiment spec: everything a worker needs, by name.

    ``tester`` is a :func:`repro.ci.default_tester` family name (``rcit``
    / ``gtest`` / ``chi2`` / ``fisher-z`` / ``kcit`` / ``adaptive``;
    ``None`` keeps the process default, including the ``REPRO_CI_TESTER``
    override).  ``subsets`` is a
    :func:`repro.core.subset_search.strategy_by_name` name (``None`` =
    the selector's default).  ``n_train``/``n_test`` forward to the
    dataset loader when set — the small-synthetic-suite knob.
    """

    dataset: str
    algorithm: str = "grpsel"
    classifier: str = "logistic"
    seed: int = 0
    alpha: float = 0.01
    tester: str | None = None
    subsets: str | None = None
    n_train: int | None = None
    n_test: int | None = None

    @property
    def label(self) -> str:
        return f"{self.dataset}/{self.algorithm}/{self.classifier}"

    def validate(self) -> None:
        """Fail fast (in the parent) on names a worker could not resolve."""
        if self.dataset not in LOADERS:
            raise ExperimentError(
                f"unknown dataset {self.dataset!r}; "
                f"choose from {sorted(LOADERS)}")
        if self.algorithm not in SELECTORS:
            raise ExperimentError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {sorted(SELECTORS)}")
        classifier_by_name(self.classifier)  # raises on unknown names
        if self.tester is not None:
            default_tester(alpha=self.alpha, seed=self.seed,
                           name=self.tester)
        if self.subsets is not None:
            strategy_by_name(self.subsets)


@dataclass
class LegOutcome:
    """What one finished leg reports back across the process boundary."""

    leg: ExperimentLeg
    report: FairnessReport
    selection: SelectionResult
    seconds: float

    def row(self) -> dict[str, float | int | str]:
        """Flat dict for tabular reporting (one suite-table row)."""
        return {
            "dataset": self.leg.dataset,
            "algorithm": self.selection.algorithm,
            "classifier": self.leg.classifier,
            "accuracy": round(self.report.accuracy, 4),
            "abs_odds_diff": round(self.report.abs_odds_difference, 4),
            "n_selected": len(self.selection.selected),
            "n_ci_tests": self.selection.n_ci_tests,
            "seconds": round(self.seconds, 2),
        }


@dataclass
class SuiteResult:
    """All leg outcomes of one driver run.

    ``jobs`` is the number of worker processes that ran the legs: 1 when
    they ran inline, else the smaller of the ``jobs`` asked for and the
    number of legs.
    """

    outcomes: list[LegOutcome] = field(default_factory=list)
    seconds: float = 0.0
    jobs: int = 1

    def table(self) -> list[dict]:
        return [outcome.row() for outcome in self.outcomes]


def expand_legs(datasets: Sequence[str], algorithms: Sequence[str] = ("grpsel",),
                classifiers: Sequence[str] = ("logistic",),
                **leg_kwargs) -> list[ExperimentLeg]:
    """The full (dataset × algorithm × classifier) product as legs."""
    return [ExperimentLeg(dataset=d, algorithm=a, classifier=c, **leg_kwargs)
            for d in datasets for a in algorithms for c in classifiers]


def _execute_leg(leg: ExperimentLeg,
                 store_root: str | None) -> LegOutcome:
    """Run one leg (module-level: this is what crosses into workers)."""
    start = time.perf_counter()
    try:
        kwargs: dict = {"seed": leg.seed}
        if leg.n_train is not None:
            kwargs["n_train"] = leg.n_train
        if leg.n_test is not None:
            kwargs["n_test"] = leg.n_test
        dataset = LOADERS[leg.dataset](**kwargs)
        tester = default_tester(alpha=leg.alpha, seed=leg.seed,
                                name=leg.tester)
        strategy = (strategy_by_name(leg.subsets)
                    if leg.subsets is not None else None)
        selector = SELECTORS[leg.algorithm](tester, strategy, leg.seed, None)
        store = ExperimentStore(store_root) if store_root else None
        run = run_method(dataset, selector,
                         classifier_factory=classifier_by_name(leg.classifier),
                         store=store)
    except ExperimentError:
        raise
    except Exception as exc:
        # The leg name must survive the pickle trip out of a worker, so
        # attribution happens here, not at the pool boundary.
        raise ExperimentError(
            f"suite leg {leg.label} failed: {exc!r}") from exc
    return LegOutcome(leg=leg, report=run.report, selection=run.selection,
                      seconds=time.perf_counter() - start)


def map_parallel(fn: Callable, items: Sequence, jobs: int) -> list:
    """Map ``fn`` over ``items``, ``jobs`` worker processes at a time.

    :func:`run_suite`'s pool primitive.  ``fn`` must be picklable (a
    module-level function or a ``functools.partial`` of one).  ``jobs=1``
    (or a single item) runs inline — no pool, the caller's process sees
    original exceptions directly.  Results come back in item order.

    On the first worker failure the remaining *queued* items are
    cancelled — the error propagates as-is (workers attribute their own
    errors, see :func:`_execute_leg`) without first grinding through
    every later item; only legs already in flight run to completion.
    """
    items = list(items)
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = [pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            # A failed leg must not execute every later leg first: drop
            # the queued backlog now, let in-flight workers finish, and
            # re-raise the original (already-attributed) error.
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def run_suite(legs: Sequence[ExperimentLeg],
              store: ExperimentStore | str | os.PathLike | None = None,
              jobs: int = 1) -> SuiteResult:
    """Run every leg, ``jobs`` at a time in worker processes.

    ``store`` (an :class:`~repro.ci.store.ExperimentStore` or root path)
    shares one append-only cache tree across all legs — pass the same
    root on a rerun and the whole suite replays from the recorded
    selections without executing a single CI test.  ``jobs`` is the
    number of worker processes asked for; the default, 1, runs every leg
    inline (no pool), which is also the fallback for a single leg.  The
    result's ``jobs`` records the workers that ran, never more than the
    legs.

    Legs are validated up front so misspelled names fail in the parent
    before any worker spawns.  Results come back in leg order.
    """
    legs = list(legs)
    if not legs:
        raise ExperimentError("run_suite needs at least one leg")
    # Deduplicate on the *full* spec, not the display label: two legs
    # differing only in seed/tester/alpha/n_train do distinct work (a
    # seed sweep is routine), but byte-identical specs would just race
    # each other's work.
    seen: set[ExperimentLeg] = set()
    duplicates: set[str] = set()
    for leg in legs:
        if leg in seen:
            duplicates.add(leg.label)
        seen.add(leg)
    if duplicates:
        raise ExperimentError(
            f"duplicate suite legs: {sorted(duplicates)} — two workers "
            "racing identical specs would just duplicate their work")
    for leg in legs:
        leg.validate()
    store_root = None
    if store is not None:
        store_root = store.root if isinstance(store, ExperimentStore) else \
            os.fspath(store)
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")

    start = time.perf_counter()
    runner = functools.partial(_execute_leg, store_root=store_root)
    outcomes = map_parallel(runner, legs, jobs)
    return SuiteResult(outcomes=outcomes,
                       seconds=time.perf_counter() - start,
                       jobs=min(jobs, len(legs)))
