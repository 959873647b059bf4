"""Wavefront selection engine: cross-candidate fused phase-1 scheduling.

PRs 1-4 made the CI substrate batch-oriented (fused same-``(Y, Z)``
kernels, pluggable executors, persistent stores), but the selectors still
fed it one candidate at a time: every candidate's phase-1 ``∃ A' ⊆ A``
search opened a private lazy stream, so the rank-``k`` queries of
*different* candidates — which all share ``(Y=S, Z=A'_k)`` and are exactly
what the fused RCIT/G-test kernels group on — never met in one batch.

This module closes that gap.  :class:`WavefrontEngine` advances many
per-candidate (or per-group) decision streams in *rank-synchronized
waves* over one :class:`~repro.ci.base.CITestLedger`:

* :meth:`WavefrontEngine.phase1_admitted` submits wave ``k`` — the
  rank-``k`` query of every still-undecided stream — as one
  ``test_batch``, so same-``(S, A'_k)`` queries fuse into the batched
  backend kernels and shard across executors
  (:meth:`~repro.ci.base.CITestLedger.test_waves` is the ledger half of
  the mechanism).
* :meth:`WavefrontEngine.refine_admitted` turns GrpSel's DFS recursion
  into *level-synchronized BFS*: every frontier group's stream runs in one
  wavefront, failed groups are refined (split, or expanded into fallback
  singletons) into the next frontier.  Splits depend only on each group's
  own verdicts, so the executed query set is exactly the DFS one.

**Order invariance** (the scheduling contract): a stream reaches rank
``k`` iff its ranks ``0..k-1`` all came back dependent, and refinement of
a group consults nothing but that group's own verdicts — so the executed
query set, ``n_ci_tests``, and ``cache_hits`` are provably identical to
the sequential per-candidate implementation (the count locks in
``tests/ci/test_count_invariants.py`` and the property suite in
``tests/core/test_wavefront.py`` machine-check this), while wall-clock
drops with the fusion width.

The engine also hoists the ledger/timing/result boilerplate the three
selectors used to triplicate: :meth:`WavefrontEngine.begin` opens a
:class:`WavefrontRun` whose :meth:`~WavefrontRun.finish` fills the count,
cache-hit, and timing fields and flushes any persistent cache.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Sequence

from repro.ci import default_tester
from repro.ci.base import CIQuery, CIResult, CITestLedger, CITester
from repro.ci.executor import BatchExecutor
from repro.ci.store import PersistentCICache
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.result import SelectionResult
from repro.core.subset_search import ExhaustiveSubsets, SubsetStrategy
from repro import env as _env

#: A phase-1 unit of decision: one candidate name or one group of names.
Unit = Sequence[str] | str

#: The wave-cell budget (rows x queries one wave submission may span).
ENV_WAVE_CELLS = _env.CI_WAVE_CELLS.name


def wave_width_cap(n_rows: int) -> int:
    """Max queries per wave submission for a table of ``n_rows`` rows.

    A wave of ``w`` queries drives fused kernels whose temporaries scale
    with ``w * n_rows`` cells; bounding that product bounds peak memory
    regardless of how wide the candidate pool is.  The budget is
    ``REPRO_CI_WAVE_CELLS``, by default ``2**25`` cells (512 MiB at 16
    bytes per cell), so a 65,536-row table gets 512 queries per wave.
    Capping only splits a wave into consecutive sub-batches —
    results and counts are provably unchanged
    (:meth:`~repro.ci.base.CITestLedger.test_waves`) — so on small
    tables, where the cap exceeds any plausible pool width, behaviour is
    identical to the uncapped engine.
    """
    cells = _env.CI_WAVE_CELLS.read_int(minimum=1)
    return max(1, cells // max(n_rows, 1))


class WavefrontRun:
    """One selection run: the ledger plus timing/result finalisation.

    Created by :meth:`WavefrontEngine.begin`; call :meth:`finish` exactly
    once to stamp this run's test and cache-hit counts and wall-clock
    time onto the result and flush any persistent cache.  The counts are
    differences from the ledger's totals at the start, so a ledger given
    as the selector's tester still reports per-run counts.
    """

    def __init__(self, ledger: CITestLedger, algorithm: str) -> None:
        self.ledger = ledger
        self.result = SelectionResult(algorithm=algorithm)
        self._tests_before = ledger.n_tests
        self._hits_before = ledger.cache_hits
        self._start = time.perf_counter()

    def finish(self) -> SelectionResult:
        self.result.n_ci_tests = self.ledger.n_tests - self._tests_before
        self.result.cache_hits = self.ledger.cache_hits - self._hits_before
        self.result.seconds = time.perf_counter() - self._start
        self.ledger.flush_cache()
        return self.result


class WavefrontEngine:
    """Shared wave-scheduling substrate for the selection algorithms.

    Holds the CI configuration every selector used to wire up by hand —
    tester, subset strategy, ledger cache, batch executor — and exposes
    the wave primitives the selectors are rebuilt on.  Engines are cheap:
    selectors construct one per ``select()`` call so mid-life mutations of
    their public ``cache``/``executor`` attributes (the
    :class:`~repro.ci.store.ExperimentStore` plumbing does this) take
    effect on the next run.
    """

    def __init__(self, tester: CITester | None = None,
                 subset_strategy: SubsetStrategy | None = None,
                 cache: bool | str | os.PathLike | PersistentCICache = False,
                 executor: BatchExecutor | None = None) -> None:
        self.tester = tester if tester is not None else default_tester()
        self.subset_strategy = subset_strategy or ExhaustiveSubsets()
        self.cache = cache
        self.executor = executor

    # -- run boilerplate -----------------------------------------------------

    def open_ledger(self) -> CITestLedger:
        """The run's ledger: the tester itself when it is a
        :class:`~repro.ci.base.CITestLedger` (a ledger never wraps a
        ledger, and a given one brings its own cache and executor, so
        passing either here too is an error, never silently dropped),
        else a fresh ledger bound to this engine's cache and executor."""
        if isinstance(self.tester, CITestLedger):
            if self.cache is not False or self.executor is not None:
                raise ValueError("a CITestLedger tester carries its own "
                                 "cache and executor; pass neither")
            return self.tester
        return CITestLedger(self.tester, cache=self.cache,
                            executor=self.executor)

    def begin(self, algorithm: str) -> WavefrontRun:
        """Open a run on :meth:`open_ledger`."""
        return WavefrontRun(self.open_ledger(), algorithm)

    # -- wave primitives -----------------------------------------------------

    def phase1_admitted(self, ledger: CITestLedger,
                        problem: FairFeatureSelectionProblem,
                        units: Sequence[Unit]) -> list[bool]:
        """Phase-1 admission for many units in rank-synchronized waves.

        Unit ``i`` is admitted iff some conditioning subset renders it
        independent of S — detected exactly as in the sequential
        early-exit loop, but with all units' rank-``k`` queries fused
        into wave ``k``.
        """
        streams = self.subset_strategy.phase1_streams(
            units, problem.sensitive, problem.admissible)
        outcomes = ledger.test_waves(
            problem.table, streams,
            max_wave=wave_width_cap(problem.table.n_rows))
        return [bool(prefix) and prefix[-1].independent
                for prefix in outcomes]

    def refine_admitted(self, ledger: CITestLedger,
                        problem: FairFeatureSelectionProblem,
                        groups: Sequence[Sequence[str]],
                        streams_for: Callable[[Sequence[Sequence[str]]],
                                              Sequence],
                        refine: Callable[[Sequence[str]],
                                         list[list[str]]]) -> list[str]:
        """Level-synchronized BFS over group decision streams.

        Each BFS level runs every frontier group's stream in one
        wavefront (``streams_for(frontier)`` builds them); groups whose
        stream ends independent are admitted wholesale, the rest are
        replaced by ``refine(group)`` — their split halves, fallback
        singletons, or nothing — in the next frontier.  Refinement sees
        only the group's own verdict, so the BFS executes exactly the
        query set of the equivalent DFS recursion, level by level, with
        sibling groups' same-rank queries fused.

        Returns the admitted feature names in frontier order (callers
        re-order against the candidate pool anyway).
        """
        admitted: list[str] = []
        frontier = [list(group) for group in groups if group]
        max_wave = wave_width_cap(problem.table.n_rows)
        while frontier:
            outcomes = ledger.test_waves(problem.table,
                                         streams_for(frontier),
                                         max_wave=max_wave)
            next_frontier: list[list[str]] = []
            for group, prefix in zip(frontier, outcomes):
                if prefix and prefix[-1].independent:
                    admitted.extend(group)
                else:
                    next_frontier.extend(
                        [list(sub) for sub in refine(group) if sub])
            frontier = next_frontier
        return admitted

    def phase2_verdicts(self, ledger: CITestLedger,
                        problem: FairFeatureSelectionProblem,
                        features: Sequence[str],
                        conditioning: Sequence[str]) -> list[CIResult]:
        """Phase-2 verdicts for many features as one wavefront.

        Each feature contributes the single query ``X ⊥ Y | A ∪ C1``,
        built by :meth:`phase2_group_streams` against one shared
        ``(Y, Z)`` frame — a one-rank stream, so the whole pass is one
        wave whose queries fuse into the batched backend kernels, split
        only by the wave-width cap (SeqSel's phase 2 and the online
        selector's retry/re-validation pass ride this).  A phase-2
        feature is never in ``A ∪ C1``: it failed phase 1, so it is not
        in C1, and an admissible column is either admitted in phase 1 or
        raises an overlap :class:`~repro.exceptions.CITestError` there.
        Counts and verdicts are identical to a flat ``test_batch``
        submission: the executed query set is the same, and one-query
        streams have no early exit to interact across.
        """
        outcomes = ledger.test_waves(
            problem.table,
            self.phase2_group_streams(problem, features, conditioning),
            max_wave=wave_width_cap(problem.table.n_rows))
        return [prefix[0] for prefix in outcomes]

    # -- common stream shapes ------------------------------------------------

    def phase1_group_streams(self, problem: FairFeatureSelectionProblem,
                             frontier: Sequence[Sequence[str]]) -> list:
        """Phase-1 (Algorithm 3) streams: ``group ⊥ S | A' ⊆ A``."""
        return self.subset_strategy.phase1_streams(
            frontier, problem.sensitive, problem.admissible)

    @staticmethod
    def phase2_group_streams(problem: FairFeatureSelectionProblem,
                             frontier: Sequence[Sequence[str]],
                             conditioning: Sequence[str]) -> list:
        """Phase-2 (Algorithm 4) streams: the single query
        ``group ⊥ Y | A ∪ C1`` per group (a one-rank stream, so each BFS
        level is one fused batch)."""
        frame = CIQuery.against(problem.target, conditioning)
        return [[frame(group)] for group in frontier]

    @staticmethod
    def bisect(group: Sequence[str]) -> list[list[str]]:
        """The paper's split: first half / second half, order preserved."""
        mid = len(group) // 2
        return [list(group[:mid]), list(group[mid:])]
