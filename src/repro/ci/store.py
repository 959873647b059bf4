"""Persistent cross-run stores: CI results and selector-level results.

Repeated harness runs over the same tables (re-running Table 2 or the
Figure 4-5 sweeps after an unrelated change) re-execute every CI test from
scratch.  Since tables are content-fingerprinted and every tester returns
the same verdict for the same ``(data, query, method, alpha,
cache_token)``, those results can be reused across processes.

:class:`PersistentCICache` is the test-level store: an opt-in, on-disk
map from ``(table.fingerprint, query key, method, alpha, cache_token)``
to the recorded result, where ``cache_token`` carries the tester's
remaining hyperparameters (seed, guards, feature budgets — see
:meth:`~repro.ci.base.CITester.cache_token`) so differently-configured
runs never share entries.  The query keys in its own orientation,
``(x, y, z)``, as in the ledger's memory cache.
It plugs into :class:`~repro.ci.base.CITestLedger` via ``cache=`` and
preserves the ledger's accounting invariants — a persistent hit counts as
a ``cache_hit``, never as a ledger entry, so ``n_ci_tests`` on a warm
rerun drops to zero without distorting the paper's cold-run counts.

:class:`ExperimentStore` scopes one on-disk cache *tree* across a whole
experiment suite: per-selector sibling CI caches under
``<root>/ci/<namespace>.json`` (so Table 2's cold-run SeqSel-vs-GrpSel
comparison keeps its meaning — see
:func:`repro.experiments.table2.table2_row`) plus fingerprint-keyed
memoisation of *selector-level* results in ``<root>/selections.json``,
keyed on ``(table.fingerprint, selector config digest, tester
cache_token)``.  A warm rerun then skips not only every CI test but the
selector traversal itself.

Format: every store file is an append-only JSON-lines log.  Its first
line is a header, ``{"format": <tag>, "version": <n>}``; every further
line is one record, ``[key, value]``.  A load folds the lines in order,
so the last record for a key wins; read in order, a CI cache's log is
the history of the verdicts its runs recorded (a compaction keeps the
last record per key).  A save appends only the records put since the
last save, in one write, under a process-wide lock (threads) and an
exclusive ``fcntl.flock`` on the file's directory (sibling processes
sharing one suite store), so concurrent savers never erase each other's
records; a save that fails leaves no part of itself in the file and
keeps its records for the next save.  A last line without its newline
is an append torn by a crash: readers skip it, and the next saver
truncates it under the lock, with a warning naming the bytes dropped.
A saver compacts the log — rewrites the folded map by temp file and
rename — only when the log holds more than twice its live records, so
the bytes a stream of saves writes stay linear in the records it adds.
A file whose first line is not the current header (missing, empty,
corrupt, another tool's, an older or a future version) reads as empty
and is never appended to: a save replaces it with a fresh log, by temp
file and rename.  The stores are pure accelerators, so no store failure
raises.
Stochastic testers are value-seeded at construction
(:func:`repro.rng.value_seed`), and the drawn seed is part of their
``cache_token``, so every stored verdict is a pure function of its key.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile
import threading
import warnings
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.problem import FairFeatureSelectionProblem
    from repro.core.result import SelectionResult

FORMAT_TAG = "repro-ci-cache"
FORMAT_VERSION = 2

SELECTIONS_TAG = "repro-selection-cache"
SELECTIONS_VERSION = 2

# Serialises every save in this process (threaded sweeps sharing a
# path); _locked adds the cross-process half with a directory flock.
_SAVE_LOCK = threading.RLock()


def _header(tag: str, version: int) -> bytes:
    """A log's first line: its format tag and version."""
    return (json.dumps({"format": tag, "version": version},
                       separators=(",", ":")) + "\n").encode("utf-8")


def _encode(records: Iterable[tuple[str, dict]]) -> bytes:
    """One log line per ``(key, value)`` record."""
    return "".join(json.dumps(record, separators=(",", ":")) + "\n"
                   for record in records).encode("utf-8")


def _fold(data: bytes, header: bytes) -> tuple[dict[str, dict], int]:
    """The map a log's bytes describe, and its record count.

    The last record for a key wins.  Bytes that do not start with the
    header read as empty; a torn last line is skipped, and so is any line
    that is not a ``[key, value]`` record (a hand edit).
    """
    if not data.startswith(header):
        return {}, 0
    complete = data[:data.rfind(b"\n")]
    try:
        # The header and the records parse as one JSON array, as fast as
        # a single document.
        records = json.loads(b"[" + complete.replace(b"\n", b",") + b"]")
        return dict(records[1:]), len(records) - 1
    except (ValueError, TypeError):
        pass
    entries: dict[str, dict] = {}
    lines = complete.split(b"\n")[1:]
    for line in lines:
        try:
            key, value = json.loads(line)
            entries[key] = value
        except (ValueError, TypeError):
            continue
    return entries, len(lines)


def _read_log(path: str, header: bytes) -> tuple[dict[str, dict], int]:
    """:func:`_fold` of the file at ``path``; a missing or unreadable
    file reads as empty."""
    try:
        with open(path, "rb") as handle:
            return _fold(handle.read(), header)
    except OSError:
        return {}, 0


def _write_all(descriptor: int, data: bytes) -> None:
    """Write all of ``data`` at the descriptor's offset.  Every byte a
    store puts on disk goes through here."""
    view = memoryview(data)
    while view:
        view = view[os.write(descriptor, view):]


def _complete_end(descriptor: int, size: int) -> int:
    """Offset just past the last newline of a ``size``-byte file."""
    end = size
    while end > 0:
        start = max(0, end - 4096)
        cut = os.pread(descriptor, end - start, start).rfind(b"\n")
        if cut >= 0:
            return start + cut + 1
        end = start
    return 0


@contextlib.contextmanager
def _locked(directory: str):
    """Hold ``_SAVE_LOCK`` and an exclusive ``flock`` on ``directory``.

    Locking the directory leaves no sidecar file next to the log; on a
    filesystem without ``flock`` the save still runs, unlocked.
    """
    with _SAVE_LOCK:
        descriptor = os.open(directory, os.O_RDONLY)
        try:
            try:
                fcntl.flock(descriptor, fcntl.LOCK_EX)
            except OSError:
                pass  # e.g. NFS refuses flock on a read-only descriptor
            yield
        finally:
            os.close(descriptor)  # releases the flock


class _Log:
    """One append-only JSON-lines map on disk (see the module docstring).

    ``entries`` is the folded map; ``dirty`` holds the keys put since the
    last successful save, whose records the next save appends.  ``lines``
    counts the records this instance knows the file to hold, which
    decides when a save compacts.
    """

    def __init__(self, path: str, tag: str, version: int) -> None:
        self.path = path
        self.header = _header(tag, version)
        self.entries, self.lines = _read_log(path, self.header)
        self.dirty: dict[str, None] = {}

    def put(self, key: str, value: dict) -> None:
        self.entries[key] = value
        self.dirty[key] = None

    def save(self) -> None:
        """Append the dirty records in one write (no-op when clean).

        Raises ``OSError`` when the save fails; the file then holds no
        part of this save, and the records stay dirty for the next one.
        """
        if not self.dirty:
            return
        appended = _encode((key, self.entries[key]) for key in self.dirty)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with _locked(directory):
            try:
                descriptor = os.open(self.path, os.O_RDWR | os.O_APPEND)
            except FileNotFoundError:
                self._rewrite(self.entries)
            else:
                try:
                    self._append(descriptor, appended)
                finally:
                    os.close(descriptor)
        self.dirty.clear()

    def _append(self, descriptor: int, appended: bytes) -> None:
        if os.pread(descriptor, len(self.header), 0) != self.header:
            self._rewrite(self.entries)  # never append to a foreign file
            return
        size = os.fstat(descriptor).st_size
        end = _complete_end(descriptor, size)
        if end < size:
            os.ftruncate(descriptor, end)
            warnings.warn(
                f"store file {self.path!r} ended in a torn record; "
                f"truncated {size - end} bytes before appending",
                RuntimeWarning, stacklevel=4)
        if self.lines + len(self.dirty) > 2 * len(self.entries):
            # Compact: every live record, other savers' included.  Read
            # through the locked descriptor, so a failed read fails the
            # save instead of compacting the log down to our records.
            folded, _ = _fold(os.pread(descriptor, end, 0), self.header)
            folded.update((key, self.entries[key]) for key in self.dirty)
            self._rewrite(folded)
            self.entries = folded
            return
        try:
            _write_all(descriptor, appended)
        except OSError:
            with contextlib.suppress(OSError):
                os.ftruncate(descriptor, end)  # drop a partial append
            raise
        self.lines += len(self.dirty)

    def _rewrite(self, entries: Mapping[str, dict]) -> None:
        """Replace the file with a fresh log of ``entries``, by temp file
        and rename."""
        data = self.header + _encode(entries.items())
        descriptor, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(self.path)),
            prefix=".ci-cache-", suffix=".tmp")
        try:
            try:
                _write_all(descriptor, data)
            finally:
                os.close(descriptor)
            os.replace(tmp_path, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise
        self.lines = len(entries)


def _key_string(fingerprint: str, query_key: tuple, method: str,
                alpha: float, token: tuple = ()) -> str:
    """Deterministic string form of one cache key.

    ``query_key`` is the ledger's ``(x, y, z)`` name tuples, in the
    query's own orientation.  ``alpha`` uses
    ``repr`` (shortest float round-trip) so 0.01 keys identically across
    runs.  ``token`` is the tester's
    :meth:`~repro.ci.base.CITester.cache_token` — the remaining
    hyperparameters (seed, guards, feature budgets) — so configurations
    never share entries.
    """
    a, b, z = query_key
    return json.dumps([fingerprint, list(a), list(b), list(z),
                       method, repr(float(alpha)), repr(token)],
                      separators=(",", ":"))


class PersistentCICache:
    """On-disk CI-result cache keyed on content, not identity.

    Records are plain mappings ``{independent, p_value, statistic,
    method}``; the ledger reconstructs full
    :class:`~repro.ci.base.CIResult` objects around them.  ``put`` marks
    a record dirty; :meth:`save` appends the dirty records to the log
    under a directory lock, where they win over any earlier record for
    the same key (for deterministic testers the records are
    byte-identical anyway).  With ``autosave_every=n`` the store
    additionally saves itself every ``n`` new records, so long sweeps
    survive interruption.  The instance is a context manager — leaving
    the block saves pending writes.
    """

    def __init__(self, path: str | os.PathLike,
                 autosave_every: int | None = None) -> None:
        if autosave_every is not None and autosave_every < 1:
            raise ValueError(
                f"autosave_every must be >= 1, got {autosave_every}")
        self.path = os.fspath(path)
        self.autosave_every = autosave_every
        self.hits = 0
        self.misses = 0
        self._log = _Log(self.path, FORMAT_TAG, FORMAT_VERSION)

    def save(self) -> None:
        """Append the records put since the last save (no-op when
        clean).  Records any other saver wrote, before or during this
        save, survive; ours win over earlier records for the same key."""
        try:
            self._log.save()
        except OSError as exc:
            # The records stay dirty: they remain in memory and the next
            # save retries — a flaky disk costs durability timing, never
            # data.
            warnings.warn(
                f"CI cache save to {self.path!r} failed ({exc}); "
                "entries retained in memory for the next save",
                RuntimeWarning, stacklevel=2)

    def get(self, fingerprint: str, query_key: tuple, method: str,
            alpha: float, token: tuple = ()) -> dict | None:
        """Stored record for one key (a copy), or ``None``.

        A *copy*, not the live internal dict: callers routinely decorate
        what they get back (harness code tagging rows), and a mutated
        alias would silently rewrite the committed entry — then persist
        it the next time a save writes that record.
        """
        record = self._log.entries.get(
            _key_string(fingerprint, query_key, method, alpha, token))
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(record)

    def put(self, fingerprint: str, query_key: tuple, method: str,
            alpha: float, record: Mapping, token: tuple = ()) -> None:
        """Insert (or overwrite) one record and mark it dirty."""
        self._log.put(
            _key_string(fingerprint, query_key, method, alpha, token),
            {"independent": bool(record["independent"]),
             "p_value": float(record["p_value"]),
             "statistic": float(record["statistic"]),
             "method": str(record["method"])})
        if self.autosave_every is not None \
                and len(self._log.dirty) >= self.autosave_every:
            self.save()

    def __len__(self) -> int:
        return len(self._log.entries)

    def __contains__(self, key: tuple) -> bool:
        """Membership by ``(fingerprint, query_key, method, alpha, token)``.

        ``token`` is the writing tester's
        :meth:`~repro.ci.base.CITester.cache_token` and is part of every
        entry's identity — omit it only for entries written with an empty
        token.
        """
        return _key_string(*key) in self._log.entries

    def __enter__(self) -> "PersistentCICache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.save()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PersistentCICache({self.path!r}, entries={len(self)}, "
                f"dirty={len(self._log.dirty)})")


def _selection_payload(result: "SelectionResult") -> dict:
    """JSON-safe record of a selection: selected sets + ledger summary."""
    return {
        "algorithm": result.algorithm,
        "c1": list(result.c1),
        "c2": list(result.c2),
        "rejected": list(result.rejected),
        "reasons": {name: reason.name
                    for name, reason in result.reasons.items()},
        "n_ci_tests": int(result.n_ci_tests),
        "seconds": float(result.seconds),
    }


def _selection_from_payload(payload: Mapping) -> "SelectionResult":
    # Imported lazily: repro.ci.base imports this module at import time,
    # and repro.core imports repro.ci.base — a top-level import here would
    # close that cycle.
    from repro.core.result import Reason, SelectionResult

    result = SelectionResult(algorithm=str(payload["algorithm"]))
    result.c1 = list(payload["c1"])
    result.c2 = list(payload["c2"])
    result.rejected = list(payload["rejected"])
    result.reasons = {name: Reason[reason]
                      for name, reason in payload["reasons"].items()}
    result.n_ci_tests = int(payload["n_ci_tests"])
    result.seconds = float(payload["seconds"])
    return result


class ExperimentStore:
    """One on-disk cache tree scoped across a whole experiment suite.

    Layout under ``root``::

        <root>/ci/<namespace>.json   per-namespace PersistentCICache
        <root>/selections.json       memoised selector-level results

    **Namespaces** keep the suite's cost accounting honest: every selector
    (or experiment leg) gets its own sibling CI cache via
    :meth:`ci_cache`, so e.g. GrpSel can never answer SeqSel's queries on
    a cold run — exactly the per-selector sibling-store discipline
    ``table2_row`` introduced, now one directory tree instead of loose
    files.  Namespace instances are shared per store object, so two legs
    asking for the same namespace see each other's writes immediately.

    **Selection memoisation** keys a finished
    :class:`~repro.core.result.SelectionResult` (selected sets, reasons,
    and the cold-run ledger summary) on ``(table.fingerprint,
    selector.config_digest(), tester.cache_token())``.  A warm
    :meth:`cached_select` then skips the selector traversal entirely —
    zero CI tests execute — while the *reported* ``n_ci_tests`` stays the
    recorded cold-run count, so downstream tables (Table 2) keep the
    paper's semantics on warm reruns.
    """

    def __init__(self, root: str | os.PathLike,
                 autosave_every: int | None = None) -> None:
        self.root = os.fspath(root)
        self.autosave_every = autosave_every
        self.selection_hits = 0
        self.selection_misses = 0
        self._ci_caches: dict[str, PersistentCICache] = {}
        self._selections = _Log(self.selections_path, SELECTIONS_TAG,
                                SELECTIONS_VERSION)

    @property
    def selections_path(self) -> str:
        return os.path.join(self.root, "selections.json")

    # -- CI-cache namespaces -------------------------------------------------

    def ci_cache(self, namespace: str) -> PersistentCICache:
        """The (shared) per-namespace CI cache under ``<root>/ci/``."""
        if (not namespace
                or namespace in (".", "..")
                or not all(ch.isalnum() or ch in "._-" for ch in namespace)):
            raise ValueError(
                "namespace must be a non-empty [alnum._-] name (not a "
                f"path), got {namespace!r}")
        cache = self._ci_caches.get(namespace)
        if cache is None:
            path = os.path.join(self.root, "ci", f"{namespace}.json")
            cache = PersistentCICache(path,
                                      autosave_every=self.autosave_every)
            self._ci_caches[namespace] = cache
        return cache

    # -- selection memoisation -----------------------------------------------

    def selection_key(self, problem: "FairFeatureSelectionProblem",
                      selector) -> str:
        """Deterministic key for one (problem, selector configuration) pair.

        The *problem* keys, not just its table: the same table queried
        with different role assignments (a candidate subset in the
        incremental setting, a different target) is a different selection
        problem and must never alias to one memoised result.
        """
        digest = getattr(selector, "config_digest", None)
        if not callable(digest):
            raise TypeError(
                f"selector {type(selector).__name__} has no config_digest(); "
                "selection memoisation needs one to key results safely")
        tester = getattr(selector, "tester", None)
        token = tuple(tester.cache_token()) if tester is not None else ()
        return json.dumps(
            [problem.table.fingerprint,
             [list(problem.sensitive), list(problem.admissible),
              list(problem.candidates), problem.target],
             repr(tuple(digest())), repr(token)],
            separators=(",", ":"))

    def get_selection(self, problem: "FairFeatureSelectionProblem",
                      selector) -> "SelectionResult | None":
        """Memoised result for this (problem, selector config), or ``None``."""
        payload = self._selections.entries.get(
            self.selection_key(problem, selector))
        if payload is not None:
            try:
                result = _selection_from_payload(payload)
            except (KeyError, TypeError, ValueError, AttributeError):
                # A malformed entry inside an otherwise valid document
                # (hand edit, partial corruption) reads as a miss — the
                # store is a pure accelerator and must never crash a run.
                payload = None
            else:
                self.selection_hits += 1
                return result
        self.selection_misses += 1
        return None

    def put_selection(self, problem: "FairFeatureSelectionProblem",
                      selector, result: "SelectionResult") -> None:
        """Record one finished selection and persist the selections file."""
        self._selections.put(self.selection_key(problem, selector),
                             _selection_payload(result))
        self._save_selections()

    def cached_select(self, selector,
                      problem: "FairFeatureSelectionProblem",
                      on_miss=None) -> "SelectionResult":
        """``selector.select(problem)`` with both cache layers attached.

        On a memo hit the selector is not invoked at all.  On a miss the
        selector runs with this store's CI cache namespace named after
        the selector's lowercased ``name`` plugged into its ledger (its
        prior ``cache`` setting is restored after), and the finished
        result is recorded — but only when the run was genuinely *cold*
        (``result.cache_hits == 0``): a resumed sweep
        re-executes just the remainder of an interrupted run, and
        memoising that partial ``n_ci_tests`` as the permanent cold-run
        summary would corrupt the very counts warm reruns exist to
        preserve.  (The flip side: once a configuration has been resumed,
        its selection is never memoised — warm reruns still execute zero
        CI tests through the namespace cache, they just re-walk the
        selector; delete the namespace file to re-record a true cold
        run.)  Naming the namespace after the selector is what keeps
        sibling selectors in sibling caches.  ``on_miss`` (if given)
        runs just before a cache-missed selection — expensive preparation
        (table warm-up) belongs there, not ahead of the memo probe.
        """
        cached = self.get_selection(problem, selector)
        if cached is not None:
            return cached
        if not hasattr(selector, "cache"):
            raise TypeError(
                f"selector {type(selector).__name__} does not accept a CI "
                "cache (no `cache` attribute)")
        if on_miss is not None:
            on_miss()
        name = getattr(selector, "name", type(selector).__name__).lower()
        prior_cache = selector.cache
        selector.cache = self.ci_cache(name)
        try:
            result = selector.select(problem)
        finally:
            selector.cache = prior_cache
        if getattr(result, "cache_hits", 1) == 0:
            self.put_selection(problem, selector, result)
        return result

    # -- persistence ---------------------------------------------------------

    def _save_selections(self) -> None:
        try:
            self._selections.save()
        except OSError as exc:
            warnings.warn(
                f"selection store save to {self.selections_path!r} "
                f"failed ({exc}); entries retained in memory for the "
                "next save", RuntimeWarning, stacklevel=2)

    def save(self) -> None:
        """Flush the selections file and every opened CI-cache namespace."""
        self._save_selections()
        for cache in self._ci_caches.values():
            cache.save()

    @property
    def n_selections(self) -> int:
        return len(self._selections.entries)

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.save()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExperimentStore({self.root!r}, "
                f"selections={self.n_selections}, "
                f"namespaces={sorted(self._ci_caches)})")
