"""Online fair feature selection (the paper's §7 future-work extension).

The paper's algorithms assume the candidate pool is fixed; its footnote 2
and conclusion point at the *online* setting where features arrive in
batches (new sources get integrated over time).  :class:`OnlineSelector`
maintains selection state across batches:

* **Phase-1 admissions are stable**: ``X ⊥ S | A'`` does not depend on the
  other candidates, so C1 admissions never need revisiting (Lemma 3: the
  union of causally fair sets is causally fair).
* **Phase-2 admissions must be re-validated**: a feature admitted because
  ``X ⊥ Y | A ∪ C1`` can become *invalid* evidence-wise when C1 grows?  No —
  conditioning on a *larger* C1 keeps d-separation by weak union only when
  the new variables are not colliders on an X-Y path.  We therefore re-test
  previously admitted C2 features against the enlarged conditioning set and
  demote any that now fail (conservative, never unsafe).
* **Previously rejected features get a second chance**: a feature rejected
  because ``X ̸⊥ Y | A ∪ C1`` may pass once C1 has grown (the enlarged set
  can block the remaining X-Y paths) — so rejected features are re-queued
  on any batch where the *evidence changed*.  With the evidence unchanged,
  the retry would re-execute the byte-identical query: pure waste for a
  deterministic tester, and worse than waste for a stochastic one (RCIT
  redraws its random features, so a re-run can flip a settled verdict).
  The same applies to re-validating prior C2 admissions.

**Delta reuse** decides, per decided feature, whether its evidence
changed.  The policy (``delta=``):

* ``column`` (default) — a per-column fingerprint map.  A decided
  feature is re-queued iff the conditioning set ``A ∪ C1`` grew, a
  *shared* column of its query (the target or any conditioning column)
  changed content, or its *own* column did.  A feature whose query
  touches only unchanged columns keeps its verdict — localized drift
  (one revised source column) re-queues one feature, not all of them.
* ``off`` — every decided feature is re-queued on every batch (the
  from-scratch reference the delta-reuse property tests compare against).

Each reused verdict counts as a :attr:`SelectionResult.cache_hits`
increment — the query *would* have re-run and its answer was served from
held state — and never as an ``n_ci_tests`` one, so test counts stay
faithful to the work new evidence actually requires.  Fingerprints are
hashed lazily: a batch with nothing decided and no phase-2 queue does no
hashing at all, and per-column hashes are memoised on the table (O(new
rows) on :meth:`~repro.data.table.Table.with_appended_rows` children).

The retry/re-validation pass itself runs through
:meth:`~repro.core.engine.WavefrontEngine.phase2_verdicts`: all phase-2
queries of a batch share ``(Y, Z)``, so they fuse into one wave under the
usual wave-width cap, with counts identical to the flat batch they
replace.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Iterator, Sequence

from repro.ci.base import CITester
from repro.ci.executor import BatchExecutor
from repro.ci import default_tester
from repro.ci.store import PersistentCICache
from repro.core.engine import WavefrontEngine
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.result import Reason, SelectionResult
from repro.core.subset_search import ExhaustiveSubsets, SubsetStrategy
from repro.exceptions import SelectionError

_DELTA_POLICIES = ("column", "off")


class OnlineSelector:
    """Stateful selector for incrementally arriving candidate features.

    Use :meth:`observe` once per batch (or :meth:`stream` over many);
    :attr:`current` always reflects the selection over everything seen so
    far.  The union over batches matches what a fresh batch run over the
    full pool would produce whenever the CI tester is consistent (exact
    for the d-separation oracle).

    ``delta`` picks the delta-reuse policy (``column`` or ``off``, see
    the module docstring).
    """

    name = "OnlineSeqSel"

    def __init__(self, tester: CITester | None = None,
                 subset_strategy: SubsetStrategy | None = None,
                 cache: bool | str | os.PathLike | PersistentCICache = False,
                 executor: BatchExecutor | None = None,
                 delta: str = "column") -> None:
        self.tester = tester if tester is not None else default_tester()
        self.subset_strategy = subset_strategy or ExhaustiveSubsets()
        if delta not in _DELTA_POLICIES:
            raise SelectionError(
                f"unknown delta-reuse policy {delta!r}; "
                f"choose from {'/'.join(_DELTA_POLICIES)}")
        self.delta = delta
        # One engine (and one ledger) spans the selector's lifetime: the
        # ledger accumulates counts across observe() calls.  A ledger
        # given as the tester may already hold counts, so the selector
        # reports differences from its totals at this point.
        self._engine = WavefrontEngine(self.tester, self.subset_strategy,
                                       cache=cache, executor=executor)
        self._ledger = self._engine.open_ledger()
        self._tests_before = self._ledger.n_tests
        self._hits_before = self._ledger.cache_hits
        self._c1: list[str] = []
        self._c2: list[str] = []
        self._rejected: list[str] = []
        self._seen: set[str] = set()
        # Evidence baseline of the last phase-2 pass: the conditioning
        # names plus per-column fingerprints of every column a retry would
        # consult.  The None sentinels make the first pass (and any pass
        # after a policy switch) run unconditionally.
        self._cond_names: frozenset[str] | None = None
        self._col_fps: dict[str, str] | None = None
        # Verdicts served from held state instead of re-executing (see
        # module docstring); surfaces through ``result.cache_hits``.
        self._delta_hits = 0
        self._snapshot: SelectionResult | None = None

    # -- state ----------------------------------------------------------------

    @property
    def current(self) -> SelectionResult:
        """Selection over all features observed so far.

        Snapshot semantics: built once per :meth:`observe` and memoised
        until the next mutation, so hot anytime consumers (a UI polling
        between batches) pay dict/list construction once, not per access.
        Treat the returned result as read-only.  ``n_ci_tests`` and
        ``cache_hits`` count this selector's work only, also when its
        tester is a :class:`~repro.ci.base.CITestLedger` shared with
        other runs.
        """
        if self._snapshot is None:
            result = SelectionResult(algorithm=self.name)
            result.c1 = list(self._c1)
            result.c2 = list(self._c2)
            result.rejected = list(self._rejected)
            for f in self._c1:
                result.reasons[f] = Reason.PHASE1_INDEPENDENT
            for f in self._c2:
                result.reasons[f] = Reason.PHASE2_IRRELEVANT
            for f in self._rejected:
                result.reasons[f] = Reason.REJECTED_BIASED
            result.n_ci_tests = self.n_ci_tests
            result.cache_hits = self._ledger.cache_hits - self._hits_before
            self._snapshot = result
        return self._snapshot

    @property
    def n_ci_tests(self) -> int:
        return self._ledger.n_tests - self._tests_before

    @property
    def delta_hits(self) -> int:
        """Verdicts reused (not re-executed) by the delta-reuse policy."""
        return self._delta_hits

    # -- processing -------------------------------------------------------------

    def observe(self, problem: FairFeatureSelectionProblem,
                batch: Sequence[str]) -> SelectionResult:
        """Process one arriving batch of candidate features.

        ``problem.table`` must contain all previously seen features (the
        online setting widens one table over time).
        """
        start = time.perf_counter()
        dupes = set(batch) & self._seen
        if dupes:
            raise SelectionError(f"features observed twice: {sorted(dupes)}")
        missing = [f for f in batch if f not in problem.table]
        if missing:
            raise SelectionError(f"batch features not in table: {missing}")
        for prior in self._c1 + self._c2 + self._rejected:
            if prior not in problem.table:
                raise SelectionError(
                    f"table lost previously observed feature {prior!r}"
                )
        self._seen.update(batch)
        self._snapshot = None

        # Phase 1 on the new batch: every arriving feature's subset
        # stream advances in one wavefront, fusing same-(S, A') queries.
        phase2_queue: list[str] = []
        admitted = self._engine.phase1_admitted(self._ledger, problem,
                                                list(batch))
        for feature, admit in zip(batch, admitted):
            if admit:
                self._c1.append(feature)
            else:
                phase2_queue.append(feature)

        # Phase 2: new failures, plus every previously decided feature
        # whose evidence actually changed — prior rejects get their
        # second chance, prior C2 admissions their re-validation.  The
        # delta policy decides staleness per feature; everything it
        # skips is a reused verdict, counted as a cache hit.
        stale = self._stale_features(problem)
        skipped = len(self._rejected) + len(self._c2) - len(stale)
        self._delta_hits += skipped
        self._ledger.credit_cache_hits(skipped)
        retry = [f for f in self._rejected if f in stale]
        revalidate = [f for f in self._c2 if f in stale]
        if stale:
            self._rejected = [f for f in self._rejected if f not in stale]
            self._c2 = [f for f in self._c2 if f not in stale]

        conditioning = list(problem.admissible) + list(self._c1)
        phase2 = phase2_queue + retry + revalidate
        if phase2:
            verdicts = self._engine.phase2_verdicts(
                self._ledger, problem, phase2, conditioning)
            for feature, verdict in zip(phase2, verdicts):
                if verdict.independent:
                    self._c2.append(feature)
                else:
                    self._rejected.append(feature)
            # Baseline for the next batch's skip decision: keyed over the
            # *post-batch* decided sets, which are exactly the features a
            # future retry pass would re-test.  Per-column hashes are
            # memoised on the table, so re-recording after the staleness
            # check re-reads, never re-hashes.
            self._record_baseline(problem)
        # With no phase-2 activity the decided sets are untouched and the
        # staleness check just verified every recorded fingerprint still
        # matches, so the prior baseline stays exact — and with nothing
        # decided *and* nothing queued, no hashing happened at all.

        result = self.current
        result.seconds = time.perf_counter() - start
        self._ledger.flush_cache()
        return result

    def stream(self, batches: Iterable) -> Iterator[SelectionResult]:
        """Anytime iterator over a stream of arriving batches.

        Each item is a ``(problem, batch)`` pair — or a bare
        :class:`FairFeatureSelectionProblem`, in which case the batch is
        every candidate of the problem not yet observed.  Yields
        :attr:`current` after each :meth:`observe`, so consumers always
        hold the admissible set over everything seen so far and can stop
        (or act) at any point in the stream.
        """
        for item in batches:
            if isinstance(item, FairFeatureSelectionProblem):
                problem = item
                batch = [f for f in problem.candidates
                         if f not in self._seen]
            else:
                problem, batch = item
            yield self.observe(problem, batch)

    # -- delta reuse ----------------------------------------------------------

    def _stale_features(self, problem: FairFeatureSelectionProblem
                        ) -> set[str]:
        """The decided features whose next retry would consult *changed*
        evidence — the set the delta policy re-queues this batch.

        Hashing is lazy: with nothing decided there is nothing to
        compare and no fingerprint is computed.
        """
        decided = self._rejected + self._c2
        if not decided:
            return set()
        cond_names = frozenset(problem.admissible) | frozenset(self._c1)
        if self.delta == "off" or cond_names != self._cond_names:
            # A grown A ∪ C1 changes every decided feature's conditioning
            # set: the enlarged set can block (or expose) paths for all
            # of them, so everything re-queues.
            return set(decided)
        table = problem.table
        recorded = self._col_fps
        if recorded is None:  # policy switched since the last baseline
            return set(decided)
        shared = set(cond_names) | {problem.target}
        if any(table.fingerprint_of((c,)) != recorded.get(c)
               for c in shared):
            # Target or conditioning data changed: every phase-2 query
            # touches these columns, so every decided feature re-queues.
            return set(decided)
        return {f for f in decided
                if table.fingerprint_of((f,)) != recorded.get(f)}

    def _record_baseline(self, problem: FairFeatureSelectionProblem
                         ) -> None:
        self._cond_names = (frozenset(problem.admissible)
                            | frozenset(self._c1))
        self._col_fps = None
        if self.delta == "off":
            return
        involved = (set(self._cond_names) | {problem.target}
                    | set(self._rejected) | set(self._c2))
        self._col_fps = {c: problem.table.fingerprint_of((c,))
                         for c in involved}
