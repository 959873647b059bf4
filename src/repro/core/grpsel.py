"""GrpSel — Algorithms 2-4 of the paper (group testing).

Identical admission semantics to SeqSel, but candidates are tested in
*groups*: if the whole group passes the CI test it is admitted wholesale;
otherwise it is split in two and each half recurses.  Soundness follows
from the graphoid composition/decomposition axioms under faithfulness
(Lemmas 1, 7, 8): a group is independent iff every member is.

Complexity: ``O(2^|A| · k · log n)`` phase-1 tests where ``k`` is the
number of biased features, versus SeqSel's ``O(2^|A| · n)``.

Execution rides the wavefront engine (:mod:`repro.core.engine`): the
paper's DFS recursion becomes *level-synchronized BFS* — every frontier
group's subset stream advances in rank-synchronized waves, so sibling
groups' same-``(S, A'_k)`` queries fuse into one batched kernel call.
Splits depend only on each group's own verdicts, so the executed query
set (and ``n_ci_tests``) is exactly the recursive implementation's.  The
``min_group > 1`` fallback rides the same mechanism: a small failed
group's members re-enter the next frontier as sibling singletons, fusing
their streams instead of re-enumerating them sequentially per member.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.ci.base import CITester
from repro.ci.executor import BatchExecutor
from repro.ci import default_tester
from repro.ci.store import PersistentCICache
from repro.core.engine import WavefrontEngine
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.result import Reason, SelectionResult
from repro.core.subset_search import ExhaustiveSubsets, SubsetStrategy
from repro.rng import SeedLike, as_generator, value_seed


class GrpSel:
    """Group-testing fair feature selection (Algorithm 2).

    ``shuffle`` randomises the partition order (the paper's
    ``random_partition``); with a fixed seed runs are reproducible.  The
    seed is fixed to one int at construction
    (:func:`repro.rng.value_seed`), so every ``select`` shuffles the same
    way.
    ``min_group`` lets callers stop splitting early and fall back to
    per-feature tests below a size threshold (1 reproduces the paper).
    ``cache``/``executor`` configure the internal ledger exactly as in
    :class:`~repro.core.seqsel.SeqSel` — cache hits (including persistent
    cross-run hits) never count toward ``n_ci_tests``.
    """

    name = "GrpSel"

    def __init__(self, tester: CITester | None = None,
                 subset_strategy: SubsetStrategy | None = None,
                 shuffle: bool = True, seed: SeedLike = 0,
                 min_group: int = 1,
                 cache: bool | str | os.PathLike | PersistentCICache = False,
                 executor: BatchExecutor | None = None) -> None:
        if min_group < 1:
            raise ValueError(f"min_group must be >= 1, got {min_group}")
        self._seed = value_seed(seed)
        # The default tester inherits the seed so one value pins the
        # partition order *and* the test's random features.
        self.tester = (tester if tester is not None
                       else default_tester(seed=self._seed))
        self.subset_strategy = subset_strategy or ExhaustiveSubsets()
        self.shuffle = shuffle
        self.min_group = min_group
        self.cache = cache
        self.executor = executor

    def config_digest(self) -> tuple:
        """Hashable description of everything that determines the selection
        for a given table (see :meth:`repro.core.seqsel.SeqSel.config_digest`).
        The partition order depends on ``shuffle``/``seed``, so both key."""
        return (self.name, self.tester.method, float(self.tester.alpha),
                self.subset_strategy.name, bool(self.shuffle),
                int(self.min_group), ("seed", self._seed))

    def _engine(self) -> WavefrontEngine:
        return WavefrontEngine(self.tester, self.subset_strategy,
                               cache=self.cache, executor=self.executor)

    def select(self, problem: FairFeatureSelectionProblem) -> SelectionResult:
        """Run both group-tested phases and return the selection."""
        engine = self._engine()
        run = engine.begin(self.name)
        ledger, result = run.ledger, run.result
        rng = as_generator(self._seed)

        pool = list(problem.candidates)
        if self.shuffle and len(pool) > 1:
            pool = [pool[i] for i in rng.permutation(len(pool))]

        # Phase 1 (Algorithm 3): group test of X ⊥ S | A' ⊆ A, as
        # level-synchronized BFS over the recursion tree.
        c1 = engine.refine_admitted(
            ledger, problem, [pool],
            streams_for=lambda frontier: engine.phase1_group_streams(
                problem, frontier),
            refine=self._refine_phase1)
        c1_set = set(c1)
        result.c1 = [c for c in problem.candidates if c in c1_set]
        for feature in result.c1:
            result.reasons[feature] = Reason.PHASE1_INDEPENDENT

        # Phase 2 (Algorithm 4): group test of X ⊥ Y | A ∪ C1 — one-rank
        # streams, so each BFS level is a single fused batch.
        rest = [c for c in pool if c not in c1_set]
        conditioning = list(problem.admissible) + list(result.c1)
        c2 = engine.refine_admitted(
            ledger, problem, [rest],
            streams_for=lambda frontier: engine.phase2_group_streams(
                problem, frontier, conditioning),
            refine=self._refine_phase2)
        c2_set = set(c2)
        result.c2 = [c for c in problem.candidates if c in c2_set]
        for feature in result.c2:
            result.reasons[feature] = Reason.PHASE2_IRRELEVANT

        selected = result.selected_set
        result.rejected = [c for c in problem.candidates if c not in selected]
        for feature in result.rejected:
            result.reasons[feature] = Reason.REJECTED_BIASED

        return run.finish()

    # -- refinement policies (consult only the group's own verdict) ----------

    def _refine_phase1(self, group: Sequence[str]) -> list[list[str]]:
        """What a failed phase-1 group becomes on the next BFS level."""
        if len(group) <= self.min_group:
            if len(group) == 1 or self.min_group == 1:
                return []
            # Fall back to per-feature tests inside a small group; the
            # members join the next frontier as sibling singletons, so
            # their subset streams fuse in the same waves instead of
            # re-running the full enumeration once per member.
            return [[member] for member in group]
        return WavefrontEngine.bisect(group)

    @staticmethod
    def _refine_phase2(group: Sequence[str]) -> list[list[str]]:
        """What a failed phase-2 group becomes on the next BFS level."""
        if len(group) == 1:
            return []
        return WavefrontEngine.bisect(group)
