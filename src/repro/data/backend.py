"""Pluggable column storage backends for :class:`~repro.data.table.Table`.

The table is a *façade*: roles, fingerprints, and the CI-engine caches live
on the table, while the raw column bytes live behind a
:class:`ColumnBackend`.  Two implementations ship:

* :class:`InMemoryBackend` — plain numpy arrays in a dict; exactly the
  storage the table always had, bitwise-unchanged semantics (columns are
  copied on ingest so tables behave as values).
* :class:`MmapBackend` — every numeric column is spilled to its own
  ``np.memmap`` file under a private directory, so a dataset far larger
  than RAM opens without materialising: reads page in lazily, and the
  chunk-streaming kernels (:func:`iter_slices` consumers in
  ``Table.discrete_codes`` / ``repro.ci.gtest``) touch one bounded window
  at a time.  Scratch arrays (joint codes, standardized blocks) are
  likewise memmap-backed via :meth:`ColumnBackend.empty`, so derived state
  never outgrows the budget either.  Object-dtype columns cannot be
  memory-mapped and stay in RAM (they are small categorical labels in
  practice).

**Backend invariance contract:** a table's observable behaviour — its
fingerprint, ``discrete_codes``, ``standardized_block``, CI verdicts, and
``n_ci_tests`` — is a pure function of the column *values*, never of the
backend or of any chunk size.  Counting kernels may stream in
caller-chosen chunks because integer counts are exactly additive; hashing
streams in a *fixed* internal block size (incremental BLAKE2 digests are
concatenation-invariant); floating-point moment passes use a fixed
internal block size precisely so a user chunk setting cannot perturb
rounding.  ``tests/data/test_backend_equivalence.py`` machine-checks the
contract.

**Serialization contract:** pickling an :class:`MmapBackend` drops every
open memmap handle and ships only ``(path, dtype, length)`` specs; a
worker process reopens the files by path on first access.  Only the
creating process owns the backing directory — unpickled copies never
delete it.

Selection: ``REPRO_TABLE_BACKEND`` (``memory``/``mmap``) picks the
process-wide default, read whenever a table is built without an explicit
backend (spawned worker processes inherit the variable, so they make the
same choice).  ``REPRO_CI_CHUNK_ROWS`` forces a
streaming chunk length for the counting kernels; when unset, chunking
engages only once a column sweep would exceed the
``REPRO_TABLE_RAM_CAP_MB`` working-set budget (default 512 MiB), so small
tables keep their single-pass code path untouched.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from typing import Iterator, Mapping

import numpy as np

from repro import env

ENV_BACKEND = env.TABLE_BACKEND.name
ENV_CHUNK_ROWS = env.CI_CHUNK_ROWS.name
ENV_RAM_CAP_MB = env.TABLE_RAM_CAP_MB.name

#: Fixed block length for content hashing.  Independent of every user
#: setting: BLAKE2 digests are incremental, so hashing in any block size
#: yields the byte-stream digest — this constant only bounds peak memory.
HASH_BLOCK_ROWS = 1 << 20

#: Fixed block length for streaming floating-point moment passes
#: (``Table.standardized_block`` on huge columns).  Deliberately *not*
#: tied to ``REPRO_CI_CHUNK_ROWS``: float accumulation order affects
#: rounding, so the moment pass always uses this internal constant and
#: its results depend only on the column values.
MOMENT_BLOCK_ROWS = 1 << 18

def default_backend_kind() -> str:
    """The backend kind new tables use when none is passed explicitly."""
    kind = env.TABLE_BACKEND.read().lower()
    _check_kind(kind)
    return kind


def _check_kind(kind: str) -> None:
    if kind not in ("memory", "mmap"):
        raise ValueError(
            f"unknown table backend {kind!r} (explicit or via "
            f"{ENV_BACKEND}); choose from memory/mmap")


def make_backend(kind: str | None = None) -> "ColumnBackend":
    """Construct a fresh backend of the given (or default) kind."""
    kind = kind if kind is not None else default_backend_kind()
    _check_kind(kind)
    return InMemoryBackend() if kind == "memory" else MmapBackend()


def resolve_chunk_rows(n_rows: int, row_bytes: int = 64) -> int:
    """Streaming chunk length for a counting pass over ``n_rows`` rows.

    Returns 0 when the pass should run unchunked (the historical
    single-pass path).  ``REPRO_CI_CHUNK_ROWS`` forces a length; otherwise
    chunking engages only when the pass's working set — ``row_bytes`` per
    row, the caller's estimate of every temporary the pass holds at once —
    would exceed the ``REPRO_TABLE_RAM_CAP_MB`` budget.  Only ever applied
    to *exactly additive* integer kernels (counts, codes), where the
    result is provably chunk-invariant.
    """
    forced = env.CI_CHUNK_ROWS.read_int(minimum=1)
    if forced is not None:
        return 0 if forced >= n_rows else forced
    cap_mb = env.TABLE_RAM_CAP_MB.read_float()
    cap_rows = int(cap_mb * (1 << 20) / max(row_bytes, 1))
    if n_rows <= cap_rows:
        return 0
    return max(1, cap_rows)


def iter_slices(n: int, chunk: int) -> Iterator[slice]:
    """Consecutive ``slice`` windows covering ``range(n)``; one full
    window when ``chunk`` is 0/negative."""
    if chunk <= 0 or chunk >= n:
        yield slice(0, n)
        return
    for start in range(0, n, chunk):
        yield slice(start, min(start + chunk, n))


def hash_array_blocks(digest, arr: np.ndarray) -> None:
    """Feed ``arr``'s raw bytes into ``digest`` in fixed-size blocks.

    The canonical byte stream of a numeric column: :data:`HASH_BLOCK_ROWS`
    windows, each serialized contiguously.  BLAKE2 digests are
    concatenation-invariant, so the result equals hashing the whole
    buffer at once — and a retained (pre-finalized) digest object can be
    extended with just the *appended* rows of a grown column and still
    produce the full-column digest (the prefix-cache path of
    ``Table.with_appended_rows``).  Peak memory stays one block
    regardless of column length or backend.
    """
    for window in iter_slices(arr.shape[0], HASH_BLOCK_ROWS):
        digest.update(np.ascontiguousarray(arr[window]).tobytes())


class ColumnBackend:
    """Where a table's column bytes live.

    Backends are *storage only*: they never interpret values, and every
    array handed out is read-only from the caller's perspective (the
    table's documented no-mutation contract).  ``put`` takes ownership by
    copy — caller arrays are never aliased — preserving the table's value
    semantics regardless of storage.
    """

    kind = "base"

    def put(self, name: str, values: np.ndarray) -> None:
        """Ingest one column (copying; never aliases ``values``)."""
        raise NotImplementedError

    def get(self, name: str) -> np.ndarray:
        """The full column (an in-RAM array, or a lazily-paged memmap)."""
        raise NotImplementedError

    def chunk(self, name: str, window: slice) -> np.ndarray:
        """A row window of one column (a view; memmaps page in lazily)."""
        return self.get(name)[window]

    def empty(self, shape, dtype) -> np.ndarray:
        """Uninitialised scratch storage for derived per-table state
        (codes, standardized blocks) with the backend's locality: RAM for
        the in-memory backend, a memmap file for the out-of-core one."""
        raise NotImplementedError

    def __contains__(self, name: str) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class InMemoryBackend(ColumnBackend):
    """Plain in-RAM column storage — the table's historical behaviour."""

    kind = "memory"

    def __init__(self) -> None:
        self._data: dict[str, np.ndarray] = {}

    def put(self, name: str, values: np.ndarray) -> None:
        self._data[name] = np.array(values)

    def get(self, name: str) -> np.ndarray:
        return self._data[name]

    def empty(self, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def __contains__(self, name: str) -> bool:
        return name in self._data


class MmapBackend(ColumnBackend):
    """Column storage spilled to per-column ``np.memmap`` files.

    Numeric columns are written once into ``<dir>/<ordinal>.col`` and
    reopened read-only; handles are cached per process and dropped on
    pickling (workers reopen by path — same-filesystem workers only,
    which is the :class:`~repro.ci.executor.ProcessExecutor` deployment
    shape).  The creating process owns the directory and removes it when
    the backend is garbage-collected; unpickled copies are non-owning.
    """

    kind = "mmap"

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-table-")
            self._owns_dir = True
        else:
            os.makedirs(directory, exist_ok=True)
            self._owns_dir = False
        self._dir = os.fspath(directory)
        #: name -> (path, dtype string, length); the pickled identity.
        self._specs: dict[str, tuple[str, str, int]] = {}
        #: Object-dtype columns: not memory-mappable, kept in RAM.
        self._objects: dict[str, np.ndarray] = {}
        self._handles: dict[str, np.ndarray] = {}
        self._counter = 0
        self._finalizer = (
            weakref.finalize(self, shutil.rmtree, self._dir,
                             ignore_errors=True)
            if self._owns_dir else None)

    # -- storage -------------------------------------------------------------

    def _new_path(self, suffix: str) -> str:
        path = os.path.join(self._dir, f"{self._counter:06d}{suffix}")
        self._counter += 1
        return path

    def put(self, name: str, values: np.ndarray) -> None:
        if values.dtype.kind == "O":
            self._objects[name] = np.array(values)
            return
        path = self._new_path(".col")
        if values.shape[0]:
            mm = np.memmap(path, dtype=values.dtype, mode="w+",
                           shape=values.shape)
            mm[:] = values
            mm.flush()
            del mm
        else:
            open(path, "wb").close()
        self._specs[name] = (path, values.dtype.str, int(values.shape[0]))
        self._handles.pop(name, None)

    def get(self, name: str) -> np.ndarray:
        obj = self._objects.get(name)
        if obj is not None:
            return obj
        handle = self._handles.get(name)
        if handle is None:
            path, dtype, length = self._specs[name]
            if length:
                handle = np.memmap(path, dtype=np.dtype(dtype), mode="r",
                                   shape=(length,))
            else:
                handle = np.empty(0, dtype=np.dtype(dtype))
            self._handles[name] = handle
        return handle

    def empty(self, shape, dtype) -> np.ndarray:
        if int(np.prod(shape)) == 0:
            return np.empty(shape, dtype=dtype)
        return np.memmap(self._new_path(".scratch"), dtype=np.dtype(dtype),
                         mode="w+", shape=shape)

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._objects

    # -- serialization -------------------------------------------------------

    def __getstate__(self) -> dict:
        """Ship specs (paths), never open memmap handles or ownership."""
        state = self.__dict__.copy()
        state["_handles"] = {}
        state["_owns_dir"] = False
        state["_finalizer"] = None
        return state

    def __setstate__(self, state: Mapping) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MmapBackend({self._dir!r}, "
                f"columns={len(self._specs) + len(self._objects)})")
