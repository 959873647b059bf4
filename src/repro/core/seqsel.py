"""SeqSel — Algorithm 1 of the paper.

Sequentially tests every candidate feature:

* **Phase 1**: admit ``X`` into ``C1`` if ``X ⊥ S | A'`` for some
  ``A' ⊆ A`` (the subset search is pluggable, see
  :mod:`repro.core.subset_search`).
* **Phase 2**: admit remaining ``X`` into ``C2`` if ``X ⊥ Y | A ∪ C1``.

Both phases only consult the CI tester — no causal graph is required.

Execution rides the wavefront engine (:mod:`repro.core.engine`): phase 1
advances every candidate's subset stream in rank-synchronized waves, so
the same-``(S, A'_k)`` queries of different candidates fuse into one
batched kernel call — while the executed query set (and so ``n_ci_tests``)
stays exactly the sequential one.
"""

from __future__ import annotations

import os

from repro.ci.base import CITester
from repro.ci.executor import BatchExecutor
from repro.ci import default_tester
from repro.ci.store import PersistentCICache
from repro.core.engine import WavefrontEngine
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.result import Reason, SelectionResult
from repro.core.subset_search import ExhaustiveSubsets, SubsetStrategy


class SeqSel:
    """Sequential fair feature selection (Algorithm 1).

    Parameters
    ----------
    tester:
        CI test backend; defaults to :class:`~repro.ci.rcit.RCIT` at
        ``alpha=0.01``, matching the paper's setup.  A
        :class:`~repro.ci.base.CITestLedger` is the run's ledger itself
        (it brings its own cache and executor, so pass neither).
    subset_strategy:
        How to search ``∃ A' ⊆ A`` in phase 1 (default exhaustive, the
        algorithm as written).
    cache:
        Passed to the internal :class:`~repro.ci.base.CITestLedger` —
        ``True`` for in-run memoisation, or a
        :class:`~repro.ci.store.PersistentCICache` (or path) to reuse
        verdicts across runs.  Cache hits never count as CI tests, so
        ``n_ci_tests`` keeps the paper's semantics.
    executor:
        Batch executor for cache-miss test batches (see
        :mod:`repro.ci.executor`).
    """

    name = "SeqSel"

    def __init__(self, tester: CITester | None = None,
                 subset_strategy: SubsetStrategy | None = None,
                 cache: bool | str | os.PathLike | PersistentCICache = False,
                 executor: BatchExecutor | None = None) -> None:
        self.tester = tester if tester is not None else default_tester()
        self.subset_strategy = subset_strategy or ExhaustiveSubsets()
        self.cache = cache
        self.executor = executor

    def config_digest(self) -> tuple:
        """Hashable description of everything that determines the selection
        for a given table — the :class:`~repro.ci.store.ExperimentStore`
        memoisation key (combined there with the tester's ``cache_token``
        and the table fingerprint)."""
        return (self.name, self.tester.method, float(self.tester.alpha),
                self.subset_strategy.name)

    def _engine(self) -> WavefrontEngine:
        return WavefrontEngine(self.tester, self.subset_strategy,
                               cache=self.cache, executor=self.executor)

    def select(self, problem: FairFeatureSelectionProblem) -> SelectionResult:
        """Run both phases and return the selection with provenance."""
        engine = self._engine()
        run = engine.begin(self.name)
        ledger, result = run.ledger, run.result

        # Phase 1: C1 = {X : exists A' subset of A with X ⊥ S | A'} —
        # every candidate's subset stream advances in one wavefront.
        remaining: list[str] = []
        admitted = engine.phase1_admitted(ledger, problem,
                                          problem.candidates)
        for candidate, admit in zip(problem.candidates, admitted):
            if admit:
                result.c1.append(candidate)
                result.reasons[candidate] = Reason.PHASE1_INDEPENDENT
            else:
                remaining.append(candidate)

        # Phase 2: C2 = {X in X \ C1 : X ⊥ Y | A ∪ C1}.  Every candidate
        # shares the conditioning set, so the whole phase is one wave.
        verdicts = engine.phase2_verdicts(
            ledger, problem, remaining,
            list(problem.admissible) + result.c1)
        for candidate, verdict in zip(remaining, verdicts):
            if verdict.independent:
                result.c2.append(candidate)
                result.reasons[candidate] = Reason.PHASE2_IRRELEVANT
            else:
                result.rejected.append(candidate)
                result.reasons[candidate] = Reason.REJECTED_BIASED

        return run.finish()
