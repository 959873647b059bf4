"""Conditional-independence testing interfaces.

Every CI test in the library answers queries of the form
``X ⊥ Y | Z`` where X, Y, Z are *sets* of column names over a
:class:`~repro.data.table.Table`.  Set-valued arguments are essential: the
whole point of GrpSel is testing a *group* of features at once.

Tests return a :class:`CIResult` (p-value + boolean verdict at the tester's
``alpha``).  A :class:`CITestLedger` wraps any tester but another ledger
and counts invocations — the unit of cost in the paper's Table 2 and
Figures 4-5.

The CI engine
-------------

Selection algorithms issue *bursts* of related queries (phase 1: one
candidate against every admissible subset; phase 2: every surviving
candidate against the target under one fixed conditioning set).  Two layers
turn those bursts into batch-oriented evaluation over shared encoded state:

* :meth:`CITester.test_batch` is every tester's one evaluation path:
  it validates the batch, groups the queries by their ``(y, z)`` pair
  and calls the tester's ``_group_eval`` once per group.
  :meth:`CITester.test` is a one-query batch, so a lone query is a
  group of one.  The discrete backends' group kernel counts every
  candidate in one offset bincount over the table's integer-code
  caches (:meth:`repro.data.table.Table.discrete_codes`); the
  continuous backends (RCIT/KCIT/Fisher-z) compute each group's shared
  legs — standardized blocks and median bandwidths
  (:meth:`repro.data.table.Table.standardized_block` /
  :meth:`~repro.data.table.Table.median_bandwidth`), the Z feature map
  and its ridge factorisation, the Y residuals — once.  Fused results
  are bitwise identical to sequential :meth:`CITester.test` because
  every random draw is derived per variable block
  (:func:`repro.rng.derive`), never consumed across queries.
  Under a ledger, RCIT's conditioned leg is built once per *run*, not
  once per group: each ledger holds one :class:`LegSlot`, visible to
  testers (:func:`running_leg_slot`) only while the ledger's executor
  call runs, so a selector's repeated ``(Y, Z)`` batches share one leg
  while raw tester calls and pool workers build their own.
* :meth:`CITestLedger.test_batch` adds exact cost accounting on top.  Its
  invariants: (1) recorded entries are precisely the tests a sequential
  early-exit loop would have executed — with ``stop_on_independent=True``
  evaluation stops at the first independent verdict and *never* speculates
  past it, so ``n_tests`` is identical to the unbatched implementation;
  (2) memoised results (``cache=True``) are keyed on the table's
  fingerprint — never on table identity — and the query in its own
  orientation, ``(x, y, z)``, so a cached verdict never depends on which
  orientation ran first; a
  cache hit increments :attr:`CITestLedger.cache_hits` without appending a
  ledger entry, so cached reuse is visible but does not inflate the
  paper's test counts.

* :meth:`CITestLedger.test_waves` generalises the early-exit form to
  *many* streams at once: wave ``k`` batches the rank-``k`` query of every
  still-undecided stream (the wavefront selection engine's substrate, see
  :mod:`repro.core.engine`), with per-stream early exit and the executed
  query set provably equal to the per-stream sequential prefixes.

Two further layers are pluggable on the ledger:

* ``cache`` also accepts a :class:`~repro.ci.store.PersistentCICache`
  (or a path, which constructs one): results are then additionally keyed
  on ``(inner.method, inner.alpha)`` and survive across processes, so a
  warm harness rerun re-executes nothing.  Persistent hits obey the same
  invariant — ``cache_hits``, never ledger entries.
* ``executor`` (default :class:`~repro.ci.executor.SerialExecutor`)
  decides how the cache-miss remainder of a batch is evaluated;
  :class:`~repro.ci.executor.ProcessExecutor` shards it across worker
  processes.  Executors only ever see queries the ledger already decided
  to execute, so they cannot change ``n_tests``.
"""

from __future__ import annotations

import itertools
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.ci.executor import BatchExecutor, default_executor
from repro.ci.store import PersistentCICache
from repro.data.table import Table
from repro.exceptions import CITestError


def canonical_names(names: Iterable[str] | str) -> tuple[str, ...]:
    """The ordering rule of every query side: sorted, duplicates dropped."""
    if isinstance(names, str):
        return (names,)
    return tuple(sorted(set(names)))


class QueryFrame:
    """A shared ``(Y, Z)`` pair, canonicalised once, that many X's test against.

    Y and Z are sorted and checked against each other when the frame is
    built; each X then costs one sort and two ``isdisjoint`` checks.
    Every query a frame builds holds the frame's own ``y``/``z`` tuples,
    so a phase-2 wave shares one conditioning tuple instead of each query
    holding a copy.  :meth:`CIQuery.make` is a one-query frame, so the
    overlap and ordering rules live here only.
    """

    __slots__ = ("y", "z", "_y_set", "_z_set")

    def __init__(self, y: Iterable[str] | str,
                 z: Iterable[str] | str = ()) -> None:
        self.y, self.z = canonical_names(y), canonical_names(z)
        if not self.y:
            raise CITestError("X and Y must be non-empty")
        self._y_set, self._z_set = frozenset(self.y), frozenset(self.z)
        if not self._y_set.isdisjoint(self._z_set):
            raise CITestError(
                f"variable sets overlap: {sorted(self._y_set & self._z_set)}")

    def __call__(self, x: Iterable[str] | str) -> "CIQuery":
        """The query ``X ⊥ Y | Z``."""
        return self.bind(canonical_names(x))

    def bind(self, xs: tuple[str, ...]) -> "CIQuery":
        """The query for an X already in :func:`canonical_names` form —
        for callers that test one X against many frames."""
        if not xs:
            raise CITestError("X and Y must be non-empty")
        if not (self._y_set.isdisjoint(xs) and self._z_set.isdisjoint(xs)):
            overlap = (self._y_set | self._z_set).intersection(xs)
            raise CITestError(f"variable sets overlap: {sorted(overlap)}")
        return CIQuery(xs, self.y, self.z)


@dataclass(frozen=True)
class CIQuery:
    """A normalised CI query ``X ⊥ Y | Z``."""

    x: tuple[str, ...]
    y: tuple[str, ...]
    z: tuple[str, ...]

    @classmethod
    def make(cls, x: Iterable[str] | str, y: Iterable[str] | str,
             z: Iterable[str] | str = ()) -> "CIQuery":
        return cls.against(y, z)(x)

    @staticmethod
    def against(y: Iterable[str] | str,
                z: Iterable[str] | str = ()) -> QueryFrame:
        """A :class:`QueryFrame` for many queries sharing ``(Y, Z)``:
        ``CIQuery.against(y, z)(x) == CIQuery.make(x, y, z)``."""
        return QueryFrame(y, z)


@dataclass(frozen=True)
class CIResult:
    """Outcome of one CI test."""

    independent: bool
    p_value: float
    statistic: float = float("nan")
    query: CIQuery | None = None
    method: str = ""

    def __bool__(self) -> bool:
        return self.independent


def as_queries(queries: Iterable[CIQuery | tuple]) -> list[CIQuery]:
    """Normalise a batch of queries: ``CIQuery`` passes through, tuples of
    ``(x, y)`` or ``(x, y, z)`` go through :meth:`CIQuery.make`."""
    out: list[CIQuery] = []
    for query in queries:
        out.append(query if isinstance(query, CIQuery) else CIQuery.make(*query))
    return out


class CITester:
    """Base class for CI tests.

    Every query reaches a tester through :meth:`test_batch`, which
    validates the batch, groups the queries by :meth:`_group_key` and
    calls :meth:`_group_eval` once per group; :meth:`test` is a
    one-query batch.  Subclasses implement one of two extension points:
    :meth:`_group_eval`, for testers that share a group's work (the
    Y and Z legs) across its candidates, or :meth:`_test`, for per-query
    testers over numpy matrices.  This class handles name resolution,
    input validation, and verdict thresholding.  ``alpha`` is the
    significance level: p-value below ``alpha`` rejects the
    independence null (the paper's default threshold is 0.01).

    A tester holds no state its callers observe: counting and storing
    verdicts is :class:`CITestLedger`'s job, so an executor may run a
    tester in any process and discard the copy.
    """

    method = "base"

    def __init__(self, alpha: float = 0.01) -> None:
        if not 0.0 < alpha < 1.0:
            raise CITestError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha

    def test(self, table: Table, x: Iterable[str] | str, y: Iterable[str] | str,
             z: Iterable[str] | str = ()) -> CIResult:
        """Test ``X ⊥ Y | Z`` on the given table: a one-query
        :meth:`test_batch`."""
        return self.test_batch(table, [CIQuery.make(x, y, z)])[0]

    def test_batch(self, table: Table,
                   queries: Iterable["CIQuery" | tuple]) -> list[CIResult]:
        """Evaluate a batch of queries; results align with the input order.

        Every query is validated first; the queries are then grouped by
        :meth:`_group_key` and each group is evaluated by one
        :meth:`_group_eval` call.  The group kernels are
        partition-invariant, so results are bitwise identical to one
        :meth:`test` call per query.  Cost accounting and early exit
        live in :meth:`CITestLedger.test_batch`, not here.
        """
        normalised = as_queries(queries)
        for query in normalised:
            self._check_query(table, query)
        groups: dict[tuple, list[int]] = {}
        for i, query in enumerate(normalised):
            groups.setdefault(self._group_key(query), []).append(i)
        results: list[CIResult | None] = [None] * len(normalised)
        for (y_names, z_names), indices in groups.items():
            pairs = self._group_eval(table, y_names, z_names,
                                     [normalised[i].x for i in indices])
            for i, (p_value, statistic) in zip(indices, pairs):
                results[i] = self._finalize(p_value, statistic,
                                            normalised[i])
        return results

    def independent(self, table: Table, x, y, z=()) -> bool:
        """Boolean convenience wrapper around :meth:`test`."""
        return self.test(table, x, y, z).independent

    def cache_token(self) -> tuple:
        """Hashable description of configuration beyond ``(method, alpha)``.

        Persistent cross-run caches key results on
        ``(fingerprint, query, method, alpha, cache_token)``.  Subclasses
        whose verdicts depend on further hyperparameters (a seed, a guard
        threshold, feature budgets) MUST include them here — otherwise a
        shared store would silently serve verdicts computed under a
        different configuration.
        """
        return ()

    def _check_query(self, table: Table, query: CIQuery) -> None:
        """Validate a normalised query against the table (shared by backends)."""
        for name in query.x + query.y + query.z:
            if name not in table:
                raise CITestError(f"unknown column in CI query: {name!r}")
        if table.n_rows < 4:
            raise CITestError(f"too few samples for a CI test: {table.n_rows}")

    @staticmethod
    def _check_finite(table: Table, y_names: tuple[str, ...],
                      z_names: tuple[str, ...],
                      x_blocks: list[tuple[str, ...]]) -> None:
        """Reject a NaN or an infinity in any column of a query group.

        For the kernel testers, which would otherwise fail inside linear
        algebra or return a NaN (or a false p = 1) p-value.  Each column
        is scanned once per table
        (:meth:`~repro.data.table.Table.nonfinite_columns`), so calling
        this per query group costs a lookup per name.
        """
        bad = table.nonfinite_columns(
            itertools.chain(y_names, z_names, *x_blocks))
        if bad:
            raise CITestError(
                f"non-finite values (NaN or inf) in CI query column(s): "
                f"{', '.join(map(repr, bad))}")

    def _finalize(self, p_value: float, statistic: float,
                  query: CIQuery) -> CIResult:
        """Clamp the p-value and threshold the verdict at ``alpha``."""
        p_value = float(min(max(p_value, 0.0), 1.0))
        return CIResult(
            independent=p_value >= self.alpha,
            p_value=p_value,
            statistic=float(statistic),
            query=query,
            method=self.method,
        )

    def _group_key(self, query: CIQuery) -> tuple:
        """The ``(y_names, z_names)`` group a query is evaluated in."""
        return (query.y, query.z)

    def _group_eval(self, table: Table, y_names: tuple[str, ...],
                    z_names: tuple[str, ...],
                    x_blocks: list[tuple[str, ...]]
                    ) -> list[tuple[float, float]]:
        """``(p_value, statistic)`` per X block sharing one (Y, Z) pair.

        The default builds the group's Y and Z matrices once and calls
        the matrix-level :meth:`_test` for each X block.
        """
        y = table.matrix(y_names)
        z = table.matrix(z_names) if z_names else None
        return [self._test(table.matrix(names), y, z) for names in x_blocks]

    def _test(self, x: np.ndarray, y: np.ndarray,
              z: np.ndarray | None) -> tuple[float, float]:
        """Return ``(p_value, statistic)`` for matrices X, Y, Z|None."""
        raise NotImplementedError


@dataclass
class LedgerEntry:
    """One recorded CI test."""

    query: CIQuery
    result: CIResult
    seconds: float


class LegSlot:
    """One group leg a ledger holds across its batches.

    A tester puts the leg it built under a key that names everything the
    leg depends on, and takes it back only under an equal key, so a
    served leg is the same arrays a fresh build makes: results keep their
    bits with or without the slot.  The slot holds one entry; a lookup
    under another key empties it first, so at most one leg is alive.
    Every read and write replaces or reads one ``(key, leg)`` pair, so a
    racing thread can at worst build a leg of its own, never take one
    built under another key.
    """

    __slots__ = ("_held",)

    def __init__(self) -> None:
        self._held: tuple | None = None

    def get(self, key: tuple):
        """The leg held under ``key``; otherwise empty the slot and
        return ``None``."""
        held = self._held
        if held is not None and held[0] == key:
            return held[1]
        self._held = None
        return None

    def hold(self, key: tuple, leg) -> None:
        self._held = (key, leg)

    def __reduce__(self):
        # A held leg is derived state: a pickled ledger ships an empty slot.
        return (LegSlot, ())


_RUNNING_SLOT: ContextVar[LegSlot | None] = ContextVar("repro_leg_slot",
                                                        default=None)


def running_leg_slot() -> LegSlot | None:
    """The slot of the ledger whose executor call is running in this
    context, or ``None``: raw tester calls and pool workers see none."""
    return _RUNNING_SLOT.get()


class CITestLedger(CITester):
    """Decorator tester that counts and records every test.

    The paper's efficiency results are phrased in number of CI tests, so
    every selection run counts through one ledger: the selector wraps its
    tester in a fresh one, or runs on the ledger it is given as its
    tester (one memo and one running count across several runs).  A
    ledger never wraps another ledger, so the run's ledger is the only
    object that counts a verdict or writes one to a store, and executors
    only ever receive plain testers.  Optional memoisation
    (``cache=True``) deduplicates repeated queries without inflating the
    count, mirroring how a practitioner would reuse results; the paper's
    counts are uncached, so the default is off.

    ``cache`` may also be a :class:`~repro.ci.store.PersistentCICache`
    (or a filesystem path, which opens one): hits are then shared across
    runs, keyed additionally on the inner tester's ``(method, alpha,
    cache_token)``.  An unseeded stochastic tester draws a fresh seed per
    instance, so its entries only ever serve that instance; seed it with
    an int to share verdicts across runs.  ``executor`` controls how
    cache-miss batches execute; see :mod:`repro.ci.executor`.

    The ledger owns one :class:`LegSlot` and exposes it through
    :func:`running_leg_slot` while its executor call runs, so the
    batches of one run share a tester's last conditioned leg (RCIT's Z
    features, ridge projector and Y residuals).  The slot never outlives
    the ledger and never changes a verdict.

    Every verdict passes through :meth:`test_batch`, so the cache, count
    and timing logic lives there once: :meth:`test` is a one-query batch,
    and the ``stop_on_independent`` loop submits one one-query batch per
    query, stopping at the first independent verdict.
    """

    def __init__(self, inner: CITester,
                 cache: bool | str | os.PathLike | PersistentCICache = False,
                 executor: BatchExecutor | None = None) -> None:
        if isinstance(inner, CITestLedger):
            raise TypeError(
                "a CITestLedger never wraps another ledger; run on the "
                "given ledger instead")
        super().__init__(alpha=inner.alpha)
        self.inner = inner
        self.method = f"ledger({inner.method})"
        self.entries: list[LedgerEntry] = []
        self.cache_hits = 0
        if isinstance(cache, (str, os.PathLike)):
            cache = PersistentCICache(cache)
        self.store: PersistentCICache | None = (
            cache if isinstance(cache, PersistentCICache) else None)
        self._cache_enabled = bool(cache) or self.store is not None
        self._cache: dict[tuple, CIResult] = {}
        self._legs = LegSlot()
        # With no explicit executor the process-wide default applies:
        # REPRO_CI_EXECUTOR, else serial (see
        # repro.ci.executor.default_executor).
        self.executor: BatchExecutor = executor or default_executor()

    def cache_token(self) -> tuple:
        # A ledger is configuration-transparent: forward the wrapped
        # tester's token so a selector running on a given ledger never
        # erases hyperparameters like min_expected or an RCIT seed from a
        # memoised selection's key.  The inner method/alpha are already
        # visible — ``method`` is ``ledger(<inner>)`` and ``alpha`` is
        # copied from the inner tester.
        return self.inner.cache_token()

    @property
    def n_tests(self) -> int:
        """Number of CI tests actually executed."""
        return len(self.entries)

    @property
    def total_seconds(self) -> float:
        """Wall-clock time spent inside CI tests."""
        return sum(e.seconds for e in self.entries)

    def reset(self) -> None:
        """Clear the ledger (and in-memory cache).

        A persistent store attached via ``cache=`` is *not* wiped — it is
        cross-run state by design; delete its file to invalidate it.
        """
        self.entries.clear()
        self._cache.clear()
        self._legs = LegSlot()
        self.cache_hits = 0

    def credit_cache_hits(self, n: int) -> None:
        """Count ``n`` verdicts reused without execution as cache hits.

        For callers that keep their own verdict memo *above* the ledger —
        the online selector's delta-reuse policy skips a phase-2 retry
        whenever the feature's evidence is fingerprint-unchanged — the
        skip has the same semantics as a ledger cache hit: a verdict
        served without running a test.  Crediting it here keeps the
        paper's count invariant in one place (``cache_hits``, never
        ``n_tests``).
        """
        if n < 0:
            raise ValueError(f"cannot credit {n} cache hits")
        self.cache_hits += n

    def _cache_key(self, table: Table | None, query: CIQuery) -> tuple:
        # Keyed on content, not identity: a rebuilt table with the same data
        # hits, a same-shaped table with different data never does.  The
        # query keys in its own orientation: a tester's two orientations
        # need not agree bit for bit.
        fingerprint = table.fingerprint if table is not None else None
        return (fingerprint, (query.x, query.y, query.z))

    def _cache_get(self, table: Table | None, query: CIQuery) -> CIResult | None:
        """In-memory lookup, falling back to the persistent store."""
        key = self._cache_key(table, query)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.store is not None and table is not None:
            record = self.store.get(table.fingerprint, key[1],
                                    self.inner.method, self.inner.alpha,
                                    token=self.inner.cache_token())
            if record is not None:
                result = CIResult(
                    independent=record["independent"],
                    p_value=record["p_value"],
                    statistic=record["statistic"],
                    query=query,
                    method=record["method"],
                )
                self._cache[key] = result
                return result
        return None

    def _cache_put(self, table: Table | None, query: CIQuery,
                   result: CIResult) -> None:
        key = self._cache_key(table, query)
        self._cache[key] = result
        if self.store is not None and table is not None:
            self.store.put(table.fingerprint, key[1], self.inner.method,
                           self.inner.alpha,
                           {"independent": result.independent,
                            "p_value": result.p_value,
                            "statistic": result.statistic,
                            "method": result.method},
                           token=self.inner.cache_token())

    def flush_cache(self) -> None:
        """Persist pending store writes (no-op without a persistent store)."""
        if self.store is not None:
            self.store.save()

    def test_batch(self, table: Table, queries: Iterable[CIQuery | tuple],
                   stop_on_independent: bool = False
                   ) -> list[CIResult | None]:
        """Batched testing with exact sequential cost accounting.

        With ``stop_on_independent=True`` queries are consumed lazily, in
        order, each as a one-query batch, and evaluation stops at the
        first independent verdict (the phase-1 ``∃ A' ⊆ A`` pattern); the
        returned list holds only the evaluated prefix.  No test beyond the
        stopping point is ever executed — not even speculatively — so
        ``n_tests`` matches a sequential loop exactly (the reference the
        wavefront property suite compares against).  Without early exit
        the result list aligns with the input and the cache-missing
        remainder is submitted to the inner tester as one batch — through
        the configured executor — sharing encoded state across queries.
        """
        if stop_on_independent:
            prefix: list[CIResult] = []
            for query in queries:
                result = self.test_batch(table, [query])[0]
                prefix.append(result)
                if result.independent:
                    break
            return prefix

        normalised = as_queries(queries)
        results: list[CIResult | None] = [None] * len(normalised)
        misses: list[int] = []
        duplicate_of: dict[int, int] = {}
        if self._cache_enabled:
            first_by_key: dict[tuple, int] = {}
            for i, query in enumerate(normalised):
                key = self._cache_key(table, query)
                cached = self._cache_get(table, query)
                if cached is not None:
                    self.cache_hits += 1
                    results[i] = cached
                elif key in first_by_key:
                    # A key-duplicate within the batch: sequentially it
                    # would hit the cache once the first occurrence ran.
                    duplicate_of[i] = first_by_key[key]
                else:
                    first_by_key[key] = i
                    misses.append(i)
        else:
            misses = list(range(len(normalised)))
        if misses:
            start = time.perf_counter()
            running = _RUNNING_SLOT.set(self._legs)
            try:
                executed = self.executor.run(
                    self.inner, table, [normalised[i] for i in misses])
            finally:
                _RUNNING_SLOT.reset(running)
            per_test = (time.perf_counter() - start) / len(misses)
            for i, result in zip(misses, executed):
                results[i] = result
                self.entries.append(LedgerEntry(normalised[i], result, per_test))
                if self._cache_enabled:
                    self._cache_put(table, normalised[i], result)
        for i, source in duplicate_of.items():
            results[i] = results[source]
            self.cache_hits += 1
        return results

    def test_waves(self, table: Table,
                   streams: Iterable[Iterable[CIQuery | tuple]],
                   max_wave: int | None = None) -> list[list[CIResult]]:
        """Advance many early-exit query streams in rank-synchronized waves.

        Each stream is a lazy queue of queries in *rank* order — the
        phase-1 ``∃ A' ⊆ A`` pattern, one stream per candidate (or per
        group).  Wave ``k`` collects the rank-``k`` query from every
        still-undecided stream and submits them as **one** batch, so
        same-``(Y, Z)`` queries from different streams meet in the fused
        backend kernels and shard across executors.  A stream is decided
        when a query comes back independent (its result list then ends on
        that verdict, exactly like
        ``test_batch(..., stop_on_independent=True)``) or when it is
        exhausted.

        **Count invariant** (the wave-scheduling contract): a stream
        reaches rank ``k`` iff its ranks ``0..k-1`` all came back
        dependent, so the *executed query set* is exactly the union of
        the per-stream sequential early-exit prefixes — ``n_tests`` and
        ``cache_hits`` totals are identical to running each stream alone,
        in any order; only the ledger-entry order differs.  Streams are
        never advanced past their deciding verdict, so lazy generators
        are consumed exactly as far as the sequential loop would.

        ``max_wave`` caps how many queries one ``test_batch`` submission
        may carry: an over-wide wave is split into consecutive
        sub-batches (the wavefront engine derives the cap from the
        memory budget).  The cap is invisible to every invariant — the
        wave's query set is fixed before submission (no intra-wave early
        exit), fused kernels are partition-invariant by the fusion
        contract, and within-batch key-duplicates are accounted as cache
        hits exactly like cross-batch ones — so only peak memory changes.
        """
        iterators = [iter(stream) for stream in streams]
        results: list[list[CIResult]] = [[] for _ in iterators]
        active = list(range(len(iterators)))
        while active:
            wave: list[CIQuery | tuple] = []
            owners: list[int] = []
            for index in active:
                try:
                    query = next(iterators[index])
                except StopIteration:
                    continue  # exhausted without independence: decided
                wave.append(query)
                owners.append(index)
            if not wave:
                break
            undecided: list[int] = []
            width = (max_wave if max_wave is not None and max_wave > 0
                     else len(wave))
            verdicts: list[CIResult] = []
            for start in range(0, len(wave), width):
                verdicts.extend(
                    self.test_batch(table, wave[start:start + width]))
            for index, verdict in zip(owners, verdicts):
                results[index].append(verdict)
                if not verdict.independent:
                    undecided.append(index)
            active = undecided
        return results


def encode_rows(matrix: np.ndarray) -> np.ndarray:
    """Encode each row of a discrete matrix as a single integer code.

    Used to collapse a multi-column conditioning set Z into strata.
    """
    if matrix.ndim != 2:
        raise CITestError(f"expected 2-D matrix, got shape {matrix.shape}")
    if matrix.shape[1] == 0:
        return np.zeros(matrix.shape[0], dtype=np.int64)
    _, codes = np.unique(matrix, axis=0, return_inverse=True)
    return codes.astype(np.int64)
