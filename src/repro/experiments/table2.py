"""Table 2: CMI columns and CI-test counts per real dataset.

Left half — ``CMI(S, Y' | A)`` for the GrpSel-trained classifier versus
``CMI(S, Y | A)`` for the raw target: the selected features should drive
the classifier's conditional dependence on S to (near) zero even though
the label itself is biased.

Right half — number of CI tests executed by SeqSel vs GrpSel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.ci.adaptive import AdaptiveCI
from repro.ci.executor import BatchExecutor
from repro.ci.store import ExperimentStore
from repro.core.grpsel import GrpSel
from repro.core.seqsel import SeqSel
from repro.core.subset_search import MarginalThenFull
from repro.data.loaders.base import Dataset
from repro.data.transforms import cognito_expand
from repro.experiments.harness import run_method
from repro.fairness.causal_metrics import conditional_mutual_information
from repro.rng import SeedLike


@dataclass
class Table2Row:
    """One dataset's row of Table 2."""

    dataset: str
    cmi_pred: float        # CMI(S, Y' | A)
    cmi_target: float      # CMI(S, Y  | A)
    seqsel_tests: int
    grpsel_tests: int

    def cells(self) -> dict[str, float | int | str]:
        return {
            "dataset": self.dataset,
            "CMI(S,Y'|A)": round(self.cmi_pred, 4),
            "CMI(S,Y|A)": round(self.cmi_target, 4),
            "SeqSel tests": self.seqsel_tests,
            "GrpSel tests": self.grpsel_tests,
        }


def expand_dataset(dataset: Dataset, max_new: int = 150,
                   rounds: int = 2) -> Dataset:
    """Widen a dataset with Cognito-derived features, as the paper does.

    The paper's appendix: "In addition to the default set of features, we
    use techniques from [31] to generate new features, constructed by
    composition of already present features."  This is what puts the real
    datasets in the regime where group testing pays off (Table 2's count
    ordering).  The same transforms are applied to train and test so the
    classifier can be evaluated on held-out data.
    """
    return Dataset(
        name=dataset.name,
        train=cognito_expand(dataset.train, max_new=max_new, rounds=rounds),
        test=cognito_expand(dataset.test, max_new=max_new, rounds=rounds),
        scm=dataset.scm,
        privileged=dataset.privileged,
        biased_features=list(dataset.biased_features),
    )


def table2_row(dataset: Dataset, seed: SeedLike = 0,
               n_derived: int = 150,
               store: ExperimentStore | str | os.PathLike | None = None,
               executor: BatchExecutor | None = None) -> Table2Row:
    """Compute one row of Table 2 for a loaded dataset.

    ``n_derived`` controls the Cognito feature expansion (0 disables it);
    the expansion is what puts the datasets in the hundreds-of-candidates
    regime the paper's counts reflect.

    ``store`` (an :class:`~repro.ci.store.ExperimentStore` or root path)
    lets a rerun over unchanged data skip every already-decided CI test.
    Each selector gets its *own* namespace, named after it (``grpsel`` /
    ``seqsel``, see :meth:`~repro.ci.store.ExperimentStore.cached_select`):
    both run the same seeded AdaptiveCI over the same table, so one
    shared cache would let whichever selector runs first answer the
    other's queries — deflating the second selector's reported count to
    ~0 even on a cold first run and corrupting exactly the
    SeqSel-vs-GrpSel comparison this table reports.  Selections are
    memoised too, so a warm rerun of the whole row executes zero CI
    tests, skips both selector traversals, and reports the recorded
    cold-run counts.

    ``executor`` parallelises both selectors' cache-miss CI batches (see
    :mod:`repro.ci.executor`); counts and verdicts are executor-invariant.
    """
    if n_derived > 0:
        dataset = expand_dataset(dataset, max_new=n_derived)
    problem = dataset.problem()

    strategy = MarginalThenFull()
    grp_selector = GrpSel(tester=AdaptiveCI(seed=seed),
                          subset_strategy=strategy, seed=seed,
                          executor=executor)
    seq_selector = SeqSel(tester=AdaptiveCI(seed=seed),
                          subset_strategy=strategy, executor=executor)

    if store is not None:
        if not isinstance(store, ExperimentStore):
            store = ExperimentStore(store)
        grp_run = run_method(dataset, grp_selector, store=store)
        seq_selection = store.cached_select(seq_selector, problem)
        store.save()
    else:
        grp_run = run_method(dataset, grp_selector)
        seq_selection = seq_selector.select(problem)

    test = dataset.test
    preds = grp_run.model.predict(test.matrix(grp_run.feature_names))
    with_pred = test.with_column("__pred__", np.asarray(preds))

    cmi_pred = conditional_mutual_information(
        with_pred, problem.sensitive, "__pred__", problem.admissible)
    cmi_target = conditional_mutual_information(
        test, problem.sensitive, problem.target, problem.admissible)

    return Table2Row(
        dataset=dataset.name,
        cmi_pred=cmi_pred,
        cmi_target=cmi_target,
        seqsel_tests=seq_selection.n_ci_tests,
        grpsel_tests=grp_run.selection.n_ci_tests,
    )
