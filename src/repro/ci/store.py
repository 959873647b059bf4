"""Persistent cross-run stores: CI results and selector-level results.

Repeated harness runs over the same tables (re-running Table 2 or the
Figure 4-5 sweeps after an unrelated change) re-execute every CI test from
scratch.  Since tables are content-fingerprinted and every tester returns
the same verdict for the same ``(data, query, method, alpha,
cache_token)``, those results can be reused across processes.

:class:`PersistentCICache` is the test-level store: an opt-in, on-disk
JSON map from ``(table.fingerprint, query.key, method, alpha,
cache_token)`` to the recorded result, where ``cache_token`` carries the
tester's remaining hyperparameters (seed, guards, feature budgets — see
:meth:`~repro.ci.base.CITester.cache_token`) so differently-configured
runs never share entries.
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

Format: single JSON documents with explicit ``format`` tags and
``version`` numbers.  Unreadable, foreign, or future-versioned files are
treated as empty (the caches are pure accelerators — losing one is always
safe); saving rewrites the file atomically via a temp file + rename,
*merging* with whatever is on disk first.  The re-read, merge and write
run under an exclusive ``fcntl.flock`` on the file's directory (and a
process-wide lock for threads), so concurrent savers — threads, or
sibling processes sharing one suite store — never erase each other's
entries, however their saves interleave.  Stochastic testers are
value-seeded at construction (:func:`repro.rng.value_seed`), and the
drawn seed is part of their ``cache_token``, so every stored verdict is
a pure function of its key.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import threading
import warnings
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.problem import FairFeatureSelectionProblem
    from repro.core.result import SelectionResult

FORMAT_TAG = "repro-ci-cache"
FORMAT_VERSION = 1

SELECTIONS_TAG = "repro-selection-cache"
SELECTIONS_VERSION = 1

# Serialises the read-merge-write critical section of every save in this
# process (threaded sweeps sharing a path); _merge_save adds the
# cross-process half with a directory flock.
_SAVE_LOCK = threading.RLock()


def _quarantine(path: str) -> None:
    """Move a corrupt store file aside as ``<path>.quarantine``.

    The original bytes are preserved for post-mortem (never deleted);
    the live path becomes free for the next save to rebuild.  A second
    corruption overwrites the first quarantine — one forensic copy is
    enough, an unbounded pile-up is not.  Best-effort: failing to move
    the corpse must not escalate a recoverable corruption into a crash,
    but it is warned about, since the next save overwrites the corpse.
    """
    try:
        os.replace(path, path + ".quarantine")
    except OSError as exc:
        warnings.warn(
            f"store file {path!r} was corrupt and could not be quarantined "
            f"({exc}); it reads as empty and the next save overwrites it",
            RuntimeWarning, stacklevel=3)
        return
    warnings.warn(
        f"store file {path!r} was corrupt and has been quarantined to "
        f"{path + '.quarantine'!r}; the cache rebuilds from live entries",
        RuntimeWarning, stacklevel=3)


def _read_document(path: str, tag: str, version: int) -> dict[str, dict]:
    """Load one versioned store document; anything unusable reads as empty.

    Crash-consistent recovery: a file that is not even parseable JSON, or
    parses to a mapping with no ``format`` tag at all, is a torn/corrupt
    write — it is quarantined (moved to ``<path>.quarantine``) so the next
    merge-on-save rebuilds a clean document instead of merging against a
    corpse forever.  Well-formed *foreign* documents (another tool's tag,
    a future version) merely read as empty and stay untouched: they are
    somebody's valid data, not corruption.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (FileNotFoundError, OSError):
        return {}
    try:
        payload = json.loads(text)
    except ValueError:
        _quarantine(path)
        return {}
    if isinstance(payload, dict) and "format" not in payload:
        _quarantine(path)
        return {}
    if (not isinstance(payload, dict)
            or payload.get("format") != tag
            or payload.get("version") != version
            or not isinstance(payload.get("entries"), dict)):
        return {}
    return dict(payload["entries"])


def _write_document(path: str, tag: str, version: int,
                    entries: Mapping[str, dict]) -> None:
    """Atomically write one versioned store document (temp file + rename)."""
    payload = {"format": tag, "version": version, "entries": dict(entries)}
    encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".ci-cache-", suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(encoded)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _merge_save(path: str, tag: str, version: int,
                entries: Mapping[str, dict]) -> dict[str, dict]:
    """Merge ``entries`` over the on-disk document and write the result.

    Re-read, merge and write run under ``_SAVE_LOCK`` and an exclusive
    ``fcntl.flock`` on the file's *directory*, so a concurrent saver in
    another process waits instead of writing a merge that misses these
    entries.  Locking the directory leaves no sidecar file behind; on a
    filesystem without ``flock`` the save still merges, unlocked.  Our
    entries win key conflicts.  Returns the merged map; raises
    ``OSError`` when the write fails (the file on disk is then intact).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with _SAVE_LOCK:
        descriptor = os.open(directory, os.O_RDONLY)
        try:
            try:
                fcntl.flock(descriptor, fcntl.LOCK_EX)
            except OSError:
                pass  # e.g. NFS refuses flock on a read-only descriptor
            merged = _read_document(path, tag, version)
            merged.update(entries)
            _write_document(path, tag, version, merged)
        finally:
            os.close(descriptor)  # releases the flock
    return merged


def _key_string(fingerprint: str, query_key: tuple, method: str,
                alpha: float, token: tuple = ()) -> str:
    """Deterministic string form of one cache key.

    ``query_key`` is :attr:`repro.ci.base.CIQuery.key` — the symmetric
    ``(x|y, y|x, z)`` name tuples — so the on-disk key inherits its
    X/Y-order insensitivity.  ``alpha`` uses ``repr`` (shortest float
    round-trip) so 0.01 keys identically across runs.  ``token`` is the
    tester's :meth:`~repro.ci.base.CITester.cache_token` — the remaining
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
    the store dirty; :meth:`save` merges with the on-disk state and writes
    atomically under a directory lock (own entries win on key conflicts,
    which for deterministic testers are byte-identical anyway).  With
    ``autosave_every=n`` the store additionally saves itself every ``n``
    new records, so long sweeps survive interruption.  The instance is a context manager —
    leaving the block saves pending writes.
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
        self._dirty = 0
        self._entries: dict[str, dict] = self._load()

    # -- persistence --------------------------------------------------------

    def _load(self) -> dict[str, dict]:
        return _read_document(self.path, FORMAT_TAG, FORMAT_VERSION)

    def save(self) -> None:
        """Merge with the on-disk state and write atomically (no-op when
        clean).  Entries any other saver wrote, before or during this
        save, survive; our entries win any key conflict."""
        if not self._dirty:
            return
        try:
            self._entries = _merge_save(self.path, FORMAT_TAG,
                                        FORMAT_VERSION, self._entries)
        except OSError as exc:
            # Keep the dirty count: entries stay in memory and the next
            # save retries — a flaky disk costs durability timing, never
            # data.
            warnings.warn(
                f"CI cache save to {self.path!r} failed ({exc}); "
                "entries retained in memory for the next save",
                RuntimeWarning, stacklevel=2)
            return
        self._dirty = 0

    # -- record access ------------------------------------------------------

    def get(self, fingerprint: str, query_key: tuple, method: str,
            alpha: float, token: tuple = ()) -> dict | None:
        """Stored record for one key (a copy), or ``None``.

        A *copy*, not the live internal dict: callers routinely decorate
        what they get back (harness code tagging rows), and a mutated
        alias would silently rewrite the committed entry — then persist
        on the next merge-on-save.
        """
        record = self._entries.get(
            _key_string(fingerprint, query_key, method, alpha, token))
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(record)

    def put(self, fingerprint: str, query_key: tuple, method: str,
            alpha: float, record: Mapping, token: tuple = ()) -> None:
        """Insert (or overwrite) one record and mark the store dirty."""
        key = _key_string(fingerprint, query_key, method, alpha, token)
        self._entries[key] = {
            "independent": bool(record["independent"]),
            "p_value": float(record["p_value"]),
            "statistic": float(record["statistic"]),
            "method": str(record["method"]),
        }
        self._dirty += 1
        if self.autosave_every is not None \
                and self._dirty >= self.autosave_every:
            self.save()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        """Membership by ``(fingerprint, query_key, method, alpha, token)``.

        ``token`` is the writing tester's
        :meth:`~repro.ci.base.CITester.cache_token` and is part of every
        entry's identity — omit it only for entries written with an empty
        token.
        """
        return _key_string(*key) in self._entries

    def __enter__(self) -> "PersistentCICache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.save()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PersistentCICache({self.path!r}, entries={len(self)}, "
                f"dirty={self._dirty})")


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
        self._selections: dict[str, dict] = _read_document(
            self.selections_path, SELECTIONS_TAG, SELECTIONS_VERSION)
        self._dirty = 0

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
        payload = self._selections.get(self.selection_key(problem, selector))
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
        key = self.selection_key(problem, selector)
        self._selections[key] = _selection_payload(result)
        self._dirty += 1
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
        if not self._dirty:
            return
        try:
            self._selections = _merge_save(
                self.selections_path, SELECTIONS_TAG, SELECTIONS_VERSION,
                self._selections)
        except OSError as exc:
            warnings.warn(
                f"selection store save to {self.selections_path!r} "
                f"failed ({exc}); entries retained in memory for the "
                "next save", RuntimeWarning, stacklevel=2)
            return
        self._dirty = 0

    def save(self) -> None:
        """Flush the selections file and every opened CI-cache namespace."""
        self._save_selections()
        for cache in self._ci_caches.values():
            cache.save()

    @property
    def n_selections(self) -> int:
        return len(self._selections)

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.save()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExperimentStore({self.root!r}, "
                f"selections={self.n_selections}, "
                f"namespaces={sorted(self._ci_caches)})")
