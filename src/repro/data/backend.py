"""Row-window and hashing primitives for :class:`~repro.data.table.Table`.

A table's columns are read-only numpy arrays in a plain dict (see
:mod:`repro.data.table`).  This module holds the helpers its block
kernels share: row windows (:func:`iter_slices`) and fixed-block content
hashing (:func:`hash_array_blocks`).

Every block size here is a constant of the engine, never a setting, so
a table's observables — its fingerprint, ``discrete_codes``,
``standardized_block``, CI verdicts, and ``n_ci_tests`` — are pure
functions of the column *values*.  Hashing streams in
:data:`HASH_BLOCK_ROWS` windows (incremental BLAKE2 digests are
concatenation-invariant), and floating-point moment passes on very long
columns stream in :data:`MOMENT_BLOCK_ROWS` windows, so the summation
order is fixed.  Counting kernels and code builders run in one pass:
the paper's tables fit in memory many times over.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Fixed block length for content hashing.  Independent of every user
#: setting: BLAKE2 digests are incremental, so hashing in any block size
#: yields the byte-stream digest — this constant only bounds peak memory.
HASH_BLOCK_ROWS = 1 << 20

#: Fixed block length for streaming floating-point moment passes
#: (``Table.standardized_block`` on huge columns).  A constant, not a
#: setting: float accumulation order affects rounding, so the moment
#: pass always uses this block size and its results depend only on the
#: column values.
MOMENT_BLOCK_ROWS = 1 << 18


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
    regardless of column length.
    """
    for window in iter_slices(arr.shape[0], HASH_BLOCK_ROWS):
        digest.update(np.ascontiguousarray(arr[window]).tobytes())
