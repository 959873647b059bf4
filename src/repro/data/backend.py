"""Chunking and hashing primitives for :class:`~repro.data.table.Table`.

A table's columns are read-only numpy arrays in a plain dict (see
:mod:`repro.data.table`).  This module holds the helpers its streaming
kernels and ``repro.ci.gtest`` share: row windows (:func:`iter_slices`),
the user-sized streaming chunk (:func:`resolve_chunk_rows`), and
fixed-block content hashing (:func:`hash_array_blocks`).

**Chunk invariance contract:** a table's observable behaviour — its
fingerprint, ``discrete_codes``, ``standardized_block``, CI verdicts, and
``n_ci_tests`` — is a pure function of the column *values*, never of
any chunk size.  Counting kernels may stream in caller-chosen chunks
because integer counts are exactly additive; hashing streams in a
*fixed* internal block size (incremental BLAKE2 digests are
concatenation-invariant); floating-point moment passes use a fixed
internal block size precisely so a user chunk setting cannot perturb
rounding.  ``tests/data/test_backend_equivalence.py`` machine-checks the
contract.

``REPRO_CI_CHUNK_ROWS`` forces a streaming chunk length for the counting
kernels; when unset, chunking engages only once a column sweep would
exceed the ``REPRO_TABLE_RAM_CAP_MB`` working-set budget (default
512 MiB), so small tables keep their single-pass code path untouched.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro import env

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
    regardless of column length.
    """
    for window in iter_slices(arr.shape[0], HASH_BLOCK_ROWS):
        digest.update(np.ascontiguousarray(arr[window]).tobytes())
