"""A small column-oriented table built on numpy arrays.

The paper frames fair feature selection inside *data integration*: new
feature columns arrive by PK-FK joins against external sources.  This module
provides the minimal substrate for that story without pandas: named columns
of equal length, role-aware schemas, selection/projection, inner equi-joins,
and train/test splitting.

Columns are immutable and shared.  A table's storage is a plain dict of
read-only numpy arrays.  Data is copied exactly once, when it enters a
table from outside: the constructor and :meth:`Table.with_column` copy
the caller's array and freeze the copy with ``setflags(write=False)``,
and :meth:`Table.with_appended_rows` writes the appended rows into a
private append buffer with ``n // 8`` spare rows, whose read-only views
the tables hold.  An append writes into the spare rows only when the
parent's column ends exactly at the buffer's claimed rows (checked and
claimed under a lock), so rows a table can see never change, two appends
to one parent never share tail rows, and a stream of appends costs
O(new rows) per append until the buffer fills.  Derived tables
(projections, role changes, renames, the columns a ``with_column``
carries over) hold their parent's array objects, so a write costs
O(new data) instead of O(whole table).  Read-only flags, not copies,
give tables their value semantics: a caller's array is never aliased,
and a table's own arrays (and the buffers behind them) reject in-place
writes.

Because instances behave as values (every relational operation returns a
new table), each table also carries lazy per-instance caches used by the CI
engine: a content :attr:`fingerprint`, per-column float conversions
(:meth:`float_column`), and joint integer codes for discrete queries
(:meth:`discrete_codes`).  Codes are built without a sort when the
values span at most as many levels as there are rows (a presence table
over the span), and a single column's codes live in an append buffer
too, so a grown column's codes cost O(new rows) when no level is new.
Hashing, finiteness scans and the float moment pass on very long columns
walk the rows in fixed block sizes (:data:`HASH_BLOCK_ROWS`,
:data:`MOMENT_BLOCK_ROWS`), constants of the engine and never settings,
so every observable is a pure function of the column values.  Counting
kernels and code builders run in one pass: the paper's tables fit in
memory many times over.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import SchemaError
from repro.data.schema import ColumnSpec, Kind, Role, TableSchema
from repro.rng import SeedLike, as_generator

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
    """Consecutive ``slice`` windows of ``chunk`` rows (the last one
    shorter) covering ``range(n)``."""
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


def standardize_matrix(matrix: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance columns (constant columns become zero).

    Canonical home of the standardisation the continuous CI testers
    (RCIT/KCIT) apply before kernel evaluation; lives here so
    :meth:`Table.standardized_block` and the testers share one
    bit-identical implementation without a data→ci import cycle.
    """
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    scale = centered.std(axis=0, keepdims=True)
    scale[scale < 1e-12] = 1.0
    return centered / scale


def _infer_kind(values: np.ndarray) -> Kind:
    """Guess a :class:`Kind` for a raw column.

    Columns with at most two distinct values are binary; other integer
    (or small-cardinality integral float) columns are discrete; everything
    else is continuous.  Bool and integer columns answer from ``min``,
    ``max`` and one comparison pass instead of sorting: at most two
    distinct values means no value lies strictly between the extremes.
    """
    if values.dtype.kind in "biu":
        if values.dtype.kind == "b" or values.size == 0:
            return Kind.BINARY
        lo, hi = values.min(), values.max()
        between = int(hi) - int(lo) > 1 and np.any((values > lo)
                                                    & (values < hi))
        return Kind.DISCRETE if between else Kind.BINARY
    uniq = np.unique(values)
    if uniq.size <= 2:
        return Kind.BINARY
    if np.issubdtype(values.dtype, np.floating) and np.all(uniq == np.round(uniq)) and uniq.size <= 20:
        return Kind.DISCRETE
    return Kind.CONTINUOUS


def _owned_column(name: str, arr: np.ndarray,
                  n_rows: int | None = None) -> np.ndarray:
    """Check a column array the table will own (1-D, and ``n_rows`` long
    when given) and freeze it.  ``arr`` must be fresh: nobody else may
    hold a writeable reference to it."""
    if arr.ndim != 1:
        raise SchemaError(f"column {name!r} must be 1-D, got shape {arr.shape}")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise SchemaError(
            f"column {name!r} has {arr.shape[0]} rows, table has {n_rows}")
    arr.setflags(write=False)
    return arr


#: float64 holds every integer of at most this magnitude exactly.
_EXACT_FLOAT_INT = 2 ** 53


def _exact_int64(values: np.ndarray) -> np.ndarray | None:
    """``values`` as int64 when they are integers or bools within
    ``±2**53``, else ``None``.

    Such values pass through ``float`` and ``round`` unchanged, so the
    result equals the discrete testers' view
    ``np.round(values.astype(float)).astype(np.int64)`` without the float
    copies (an int64 array is returned as is).  ``None`` tells the caller
    to take that float path.
    """
    if values.dtype.kind not in "biu":
        return None
    if (values.dtype.itemsize == 8 and values.size
            and not (-_EXACT_FLOAT_INT <= int(values.min())
                     and int(values.max()) <= _EXACT_FLOAT_INT)):
        return None
    return values.astype(np.int64, copy=False)


def _unique_inverse(codes: np.ndarray, out: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for 1-D int64 ``codes``,
    without a sort when the codes span at most as many values as there
    are codes.

    Then a presence table over the span gives the same levels and ranks
    in linear time: a ``bincount`` of the shifted codes marks the levels
    present, its ``cumsum`` ranks them, and a ``take`` maps every code
    to its level's rank.  A wider span would make the table outgrow the
    sort, so :func:`numpy.unique` runs instead; the rule reads only the
    input.  With ``out``, the inverse is written into it.
    """
    if codes.size:
        low = int(codes.min())
        if int(codes.max()) - low < codes.size:
            shifted = codes - low
            present = np.bincount(shifted) > 0
            rank = np.cumsum(present) - 1
            # Every index is in range, so "clip" never clips; it only
            # spares ``out`` the staging copy of the default "raise".
            return np.flatnonzero(present) + low, np.take(
                rank, shifted, out=out, mode="clip")
    values, inverse = np.unique(codes, return_inverse=True)
    if out is None:
        return values, inverse
    out[...] = inverse
    return values, out


def _cast_tail(name: str, tail: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """An appended tail cast to its column's ``dtype``.

    numpy casts unsafely (2.7 into an int column becomes 2, 300 into
    uint8 becomes 44, a long string is cut to a fixed-width column), so
    the cast is checked by casting back: any value that changes is a
    :class:`SchemaError`.  NaN survives only into a floating column.
    """
    if tail.dtype == dtype:
        return tail
    with np.errstate(invalid="ignore", over="ignore"):
        cast = tail.astype(dtype)
        kept = cast.astype(tail.dtype) == tail
    if dtype.kind in "fc":
        kept |= np.isnan(cast)
    if not np.all(kept):
        raise SchemaError(
            f"appended column {name!r}: values change under the cast "
            f"from {tail.dtype} to {dtype}")
    return cast


class _AppendBuffer:
    """The private backing array of a column, or of a column's codes,
    that :meth:`Table.with_appended_rows` grows.

    Tables hold read-only views ``array[:n]``; the array itself is
    read-only except while an append writes into it.  ``claimed`` is
    where the longest view handed out ends: rows past it are spare, and
    no table can see them.  ``lock`` serialises the claim of spare rows.
    """

    __slots__ = ("array", "claimed", "lock")

    def __init__(self, n_rows: int, dtype: np.dtype) -> None:
        self.array = np.empty(n_rows + n_rows // 8, dtype=dtype)
        self.claimed = n_rows
        self.lock = threading.Lock()

    def freeze(self) -> np.ndarray:
        """Make the array read-only; return the view of its claimed rows."""
        self.array.setflags(write=False)
        return self.array[:self.claimed]


def _appended(head: np.ndarray, tail: np.ndarray,
              buffer: _AppendBuffer | None
              ) -> tuple[np.ndarray, _AppendBuffer]:
    """``head`` followed by ``tail``, as a read-only view of an append
    buffer, and that buffer.

    The tail goes into ``buffer``'s spare rows only when ``head`` is the
    view that ends exactly at the buffer's claimed rows and the tail
    fits; the check and the claim are one step under a lock, so two
    appends to one head never share tail rows.  Otherwise both are
    copied into a new buffer with ``n // 8`` spare rows.
    """
    n0 = head.shape[0]
    n = n0 + tail.shape[0]
    if buffer is not None:
        array = buffer.array
        with buffer.lock:
            if (head.base is array and buffer.claimed == n0
                    and n <= array.shape[0]):
                array.setflags(write=True)
                try:
                    array[n0:n] = tail
                finally:
                    array.setflags(write=False)
                buffer.claimed = n
                return array[:n], buffer
    buffer = _AppendBuffer(n, head.dtype)
    buffer.array[:n0] = head
    buffer.array[n0:n] = tail
    return buffer.freeze(), buffer


class Table:
    """Named, equal-length columns with a fairness-aware schema.

    >>> t = Table({"s": np.array([0, 1]), "y": np.array([1, 0])},
    ...           roles={"s": Role.SENSITIVE, "y": Role.TARGET})
    >>> t.n_rows, t.schema.sensitive
    (2, ['s'])

    The constructor copies every column once and freezes the copies;
    tables derived from this one share those read-only arrays (see the
    module docstring).
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray | Sequence],
        schema: TableSchema | None = None,
        roles: Mapping[str, Role] | None = None,
    ) -> None:
        data: dict[str, np.ndarray] = {}
        kinds: dict[str, Kind] = {}
        lengths = set()
        infer = schema is None
        for name, values in columns.items():
            arr = _owned_column(name, np.array(values))
            data[name] = arr
            if infer:
                kinds[name] = _infer_kind(arr)
            lengths.add(arr.shape[0])
        if len(lengths) > 1:
            raise SchemaError(f"columns have mismatched lengths: {sorted(lengths)}")

        if schema is None:
            role_map = dict(roles or {})
            unknown = set(role_map) - set(data)
            if unknown:
                raise SchemaError(f"roles given for unknown columns: {sorted(unknown)}")
            schema = TableSchema(
                [
                    ColumnSpec(name, kinds[name], role_map.get(name, Role.OTHER))
                    for name in data
                ]
            )
        else:
            if roles is not None:
                schema = schema.with_roles(dict(roles))
            missing = set(schema.names) ^ set(data)
            if missing:
                raise SchemaError(f"schema/column mismatch on: {sorted(missing)}")
        self._setup(data, schema, lengths.pop() if lengths else 0)

    @classmethod
    def _unchecked(cls, data: dict[str, np.ndarray], schema: TableSchema,
                   n_rows: int) -> "Table":
        """A table over ``data`` as given: no copy, no validation, no kind
        inference.  The derivations below guarantee the invariants the
        constructor checks: every array is read-only and ``n_rows`` long,
        and ``schema`` names exactly ``data``'s columns."""
        table = cls.__new__(cls)
        table._setup(data, schema, n_rows)
        return table

    def _setup(self, data: dict[str, np.ndarray], schema: TableSchema,
               n_rows: int) -> None:
        self._data = data
        self._n_rows = n_rows
        self.schema = schema

        # Lazy caches for the CI engine (see module docstring).
        self._fingerprint: str | None = None
        self._float_cols: dict[str, np.ndarray] = {}
        self._codes_cache: dict[tuple[str, ...], tuple[np.ndarray, int]] = {}
        # Continuous analogues of discrete_codes: standardized float
        # blocks and RBF median-heuristic bandwidths, shared across every
        # query of a fused continuous batch (see standardized_block /
        # median_bandwidth).  Subset fingerprints are memoised too — the
        # fused RCIT path derives per-block generators from them, which
        # would otherwise re-hash full column content per query.
        self._std_blocks: dict[tuple[str, ...], np.ndarray] = {}
        self._bandwidth_cache: dict[tuple, float] = {}
        self._subset_fingerprints: dict[tuple[str, ...], str] = {}
        # Per-column "holds only finite values" verdicts (see
        # nonfinite_columns): one scan per column, then a dict lookup.
        self._finite: dict[str, bool] = {}
        # Prefix caches (the incremental-kernel substrate).  Per-column
        # *running* blake2b states over (name, dtype, kind, bytes): a
        # lineage child copies a parent's state and extends it with only
        # the appended bytes (see with_appended_rows).  _code_values keeps
        # the sorted level values behind _single_codes so a grown column
        # relabels only its tail; _moment_sums keeps full-aligned-block
        # partial sums of the streamed moment pass (pass 1 of
        # _streamed_standardized), reusable because identical content
        # yields identical block sums.  All of these are *derived* state:
        # rebuilt from column values on demand, never serialized.
        self._col_hashes: dict[str, "hashlib.blake2b"] = {}
        self._code_values: dict[str, np.ndarray] = {}
        self._moment_sums: dict[str, dict[int, float]] = {}
        # Lineage snapshot: the with_appended_rows parent's (codes,
        # level values, code buffer) per column — consumed (and dropped)
        # by the first _single_codes call.
        self._prefix_codes: dict[
            str, tuple[np.ndarray, np.ndarray, _AppendBuffer | None]] = {}
        # The append buffer behind each column, and behind each column's
        # single-column codes, that a with_appended_rows child may grow
        # in place (see _appended).
        self._col_buffers: dict[str, _AppendBuffer] = {}
        self._code_buffers: dict[str, _AppendBuffer] = {}

    # -- basic accessors --------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return len(self._data)

    @property
    def columns(self) -> list[str]:
        """Column names in schema order."""
        return self.schema.names

    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __getitem__(self, name: str) -> np.ndarray:
        """Return one column: the table's own read-only array."""
        if name not in self._data:
            raise SchemaError(f"unknown column: {name!r}")
        return self._data[name]

    def matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack the named columns into an ``(n_rows, k)`` float matrix."""
        use = list(names) if names is not None else self.columns
        if not use:
            return np.empty((self._n_rows, 0))
        return np.column_stack([self.float_column(n) for n in use])

    # -- CI-engine caches --------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Content hash of the table (column names, dtypes, kinds, values).

        Two tables with identical columns share a fingerprint, which is what
        lets CI caches key results on ``(fingerprint, query)`` and survive
        table re-construction while never serving stale answers for a table
        with different data.  The schema *kind* of each column participates
        because kind-aware testers (:class:`~repro.ci.adaptive.AdaptiveCI`)
        dispatch on it: the same values annotated discrete vs continuous
        answer through different backends, so they must never share cache
        entries.  (Roles deliberately do not participate — they steer
        selection, not test outcomes.)

        Composed from the per-column digests (in schema order), not from
        one flat byte stream: the per-column blake2b *states* are cached,
        so a :meth:`with_appended_rows` child extends each inherited state
        with only the appended bytes — the whole-table fingerprint of a
        grown table costs O(new rows).  Still a pure function of the
        column values: two tables with identical columns share a
        fingerprint however they were constructed.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            for name in self.columns:
                digest.update(self._col_hash_state(name).digest())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def fingerprint_of(self, names: Iterable[str]) -> str:
        """Content hash of a *subset* of columns (order-insensitive).

        Lets incremental callers detect data changes in exactly the
        columns a decision depends on — e.g. the online selector re-tests
        previously rejected features only when the columns its phase-2
        queries touch actually changed, not when an unrelated column was
        appended to the (widening) table.  Memoised per name-set
        (columns are immutable): the continuous CI engine consults it on
        every per-block generator derivation and bandwidth lookup.

        A single-column request reads the cached per-column hash state
        (O(new rows) on a :meth:`with_appended_rows` child) — the online
        selector's per-column delta map leans on this.  Multi-column
        requests keep the original one-digest-over-the-byte-streams
        definition so existing content-derived values (RCIT's per-block
        seed derivation) are stable.
        """
        key = tuple(sorted(set(names)))
        cached = self._subset_fingerprints.get(key)
        if cached is None:
            if len(key) == 1:
                cached = self._col_hash_state(key[0]).hexdigest()
            else:
                digest = hashlib.blake2b(digest_size=16)
                for name in key:
                    self._hash_column(digest, name)
                cached = digest.hexdigest()
            self._subset_fingerprints[key] = cached
        return cached

    def _col_hash_state(self, name: str):
        """The cached *running* blake2b state of one column's canonical
        stream (name, dtype, kind, bytes).  Callers read ``.digest()``
        without finalising, so the state stays extendable: lineage
        children append just the tail bytes (:meth:`with_appended_rows`).
        ``hexdigest()`` of this state is exactly the single-column
        :meth:`fingerprint_of`."""
        state = self._col_hashes.get(name)
        if state is None:
            state = hashlib.blake2b(digest_size=16)
            self._hash_column(state, name)
            self._col_hashes[name] = state
        return state

    def _hash_column(self, digest, name: str) -> None:
        arr = self[name]
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(self.schema.spec(name).kind.value.encode())
        if arr.dtype.kind == "O":
            # repr of the whole list: not incrementally extendable, so
            # object columns never adopt a parent state.
            digest.update(repr(arr.tolist()).encode())
        else:
            # Fixed-block incremental hashing: identical digest to hashing
            # the whole buffer at once, with bounded peak memory.
            hash_array_blocks(digest, arr)

    def float_column(self, name: str) -> np.ndarray:
        """Cached read-only float conversion of one column (a float64
        column is returned as stored: it is already read-only)."""
        cached = self._float_cols.get(name)
        if cached is None:
            cached = np.asarray(self[name], dtype=float)
            cached.setflags(write=False)
            self._float_cols[name] = cached
        return cached

    def _float_chunk(self, name: str, window: slice) -> np.ndarray:
        """One row window of :meth:`float_column`, without caching the
        full conversion (the streaming kernels' accessor)."""
        cached = self._float_cols.get(name)
        if cached is not None:
            return cached[window]
        return np.asarray(self[name][window], dtype=float)

    def discrete_codes(self, names: Sequence[str] | str) -> tuple[np.ndarray, int]:
        """Dense integer codes of the joint of rounded columns (cached).

        Returns ``(codes, n_levels)`` where ``codes`` is a read-only int64
        array with values in ``[0, n_levels)``.  Columns are viewed through
        ``round(float(column))`` — the discrete testers' view of the data —
        and a multi-column request encodes the *joint* level of the tuple,
        labelled in lexicographic order of the per-column levels (identical
        to :func:`repro.ci.base.encode_rows` on the stacked matrix).
        """
        key = (names,) if isinstance(names, str) else tuple(names)
        cached = self._codes_cache.get(key)
        if cached is not None:
            return cached
        if not key or self._n_rows == 0:
            codes = np.zeros(self._n_rows, dtype=np.int64)
            n_levels = 1 if self._n_rows else 0
        elif len(key) == 1:
            codes, n_levels = self._single_codes(key[0])
        else:
            codes, n_levels = self._joint_codes(key)
        codes.setflags(write=False)
        self._codes_cache[key] = (codes, n_levels)
        return codes, n_levels

    def _single_codes(self, name: str) -> tuple[np.ndarray, int]:
        """Dense codes of one rounded column (densified by
        :func:`_unique_inverse`, or — on a :meth:`with_appended_rows`
        child — extended from the parent's codes at O(new rows)).  Both
        paths record the sorted level values in ``_code_values`` and
        leave the codes in an append buffer with spare rows, so future
        children can extend in turn.  An integer column within ``±2**53``
        is coded from its integers (:func:`_exact_int64`), any other
        column from ``round(float_column)``."""
        prefix = self._prefix_codes.pop(name, None)
        if prefix is not None:
            return self._extended_codes(name, *prefix)
        col = _exact_int64(self[name])
        if col is None:
            col = np.round(self.float_column(name)).astype(np.int64)
        buffer = _AppendBuffer(self._n_rows, np.int64)
        uniq, _ = _unique_inverse(col, out=buffer.array[:self._n_rows])
        self._code_values[name] = uniq
        self._code_buffers[name] = buffer
        return buffer.freeze(), int(uniq.size)

    def _extended_codes(self, name: str, parent_codes: np.ndarray,
                        parent_values: np.ndarray,
                        buffer: _AppendBuffer | None
                        ) -> tuple[np.ndarray, int]:
        """Extend a lineage parent's dense codes with this table's tail.

        Bitwise identical to ``np.unique(full column, return_inverse)``:
        the sorted level set of the grown column is the union of the
        parent's levels and the tail's, and every element's code is its
        value's rank in that union.  When the tail introduces no new
        level (the common streaming case) the parent's codes stand, and
        only the tail's codes are written, into the spare rows of the
        parent's code buffer when the claim rule of :func:`_appended`
        allows — O(new rows).  Otherwise the parent's codes are copied,
        or relabelled by one O(n) integer gather, into a new buffer;
        the full column is never re-sorted.
        """
        n0 = parent_codes.shape[0]
        window = slice(n0, self._n_rows)
        tail = _exact_int64(self[name][window])
        if tail is None:
            tail = np.round(self._float_chunk(name, window)).astype(np.int64)
        uniq = np.union1d(parent_values, np.unique(tail))
        if uniq.size == parent_values.size:
            codes, buffer = _appended(parent_codes,
                                      np.searchsorted(uniq, tail), buffer)
        else:
            buffer = _AppendBuffer(self._n_rows, np.int64)
            np.take(np.searchsorted(uniq, parent_values), parent_codes,
                    out=buffer.array[:n0], mode="clip")
            buffer.array[n0:self._n_rows] = np.searchsorted(uniq, tail)
            codes = buffer.freeze()
        self._code_values[name] = uniq
        self._code_buffers[name] = buffer
        return codes, int(uniq.size)

    def nonfinite_columns(self, names: Iterable[str]) -> list[str]:
        """The columns among ``names`` that hold a NaN or an infinity.

        Each column is scanned once, in fixed row blocks, and the verdict
        is memoised (columns are immutable), so the continuous CI testers
        can validate every query group for one dict lookup per name.
        """
        bad = []
        for name in names:
            finite = self._finite.get(name)
            if finite is None:
                finite = all(
                    np.isfinite(self._float_chunk(name, window)).all()
                    for window in iter_slices(self._n_rows,
                                              MOMENT_BLOCK_ROWS))
                self._finite[name] = finite
            if not finite:
                bad.append(name)
        return bad

    def standardized_block(self, names: Sequence[str] | str) -> np.ndarray:
        """Cached read-only standardized float block of the named columns.

        The continuous testers' view of the data: ``standardize_matrix``
        over :meth:`matrix`, built once per ``(table, name-tuple)`` —
        every query of a same-``(Y, Z)`` burst standardizes its
        conditioning block through this cache instead of redoing the
        column scan per query.  Value semantics: the cache can never go
        stale because tables are immutable under the documented
        no-mutation contract.

        Columns longer than the fixed :data:`MOMENT_BLOCK_ROWS` stream
        through a two-pass moment computation (sum, then squared
        deviations) instead of materialising the stacked matrix.  The
        block size is a constant, never a setting, so the result depends
        only on the column values.
        """
        key = (names,) if isinstance(names, str) else tuple(names)
        cached = self._std_blocks.get(key)
        if cached is None:
            if self._n_rows > MOMENT_BLOCK_ROWS and key:
                cached = self._streamed_standardized(key)
            else:
                cached = standardize_matrix(self.matrix(key))
            cached.setflags(write=False)
            self._std_blocks[key] = cached
        return cached

    def _streamed_standardized(self, key: tuple[str, ...]) -> np.ndarray:
        """Two-pass streaming standardisation for past-budget columns.

        Pass 1 (the per-column block sums) is memoised in
        ``_moment_sums``, keyed by block index: the block grid is the
        fixed :data:`MOMENT_BLOCK_ROWS`, so a full block's sum is a pure
        function of the column content and can be reused across
        overlapping name-tuples *and* by
        :meth:`with_appended_rows` children (a grown column's old full
        blocks cover identical rows).  Reuse replays the exact same
        additions in the exact same order, so the output stays bitwise
        identical to the cold pass.  Passes 2-3 depend on the mean, which
        shifts with every appended row, and remain O(n) by nature.
        """
        n = self._n_rows
        sums = np.zeros(len(key))
        for j, name in enumerate(key):
            block_sums = self._moment_sums.setdefault(name, {})
            for window in iter_slices(n, MOMENT_BLOCK_ROWS):
                part = block_sums.get(window.start)
                if part is None:
                    part = float(self._float_chunk(name, window).sum())
                    if window.stop - window.start == MOMENT_BLOCK_ROWS:
                        block_sums[window.start] = part
                sums[j] += part
        mean = sums / n
        sumsq = np.zeros(len(key))
        for window in iter_slices(n, MOMENT_BLOCK_ROWS):
            for j, name in enumerate(key):
                centered = self._float_chunk(name, window) - mean[j]
                sumsq[j] += (centered * centered).sum()
        scale = np.sqrt(sumsq / n)
        scale[scale < 1e-12] = 1.0
        out = np.empty((n, len(key)), np.float64)
        for window in iter_slices(n, MOMENT_BLOCK_ROWS):
            for j, name in enumerate(key):
                out[window, j] = (self._float_chunk(name, window)
                                  - mean[j]) / scale[j]
        return out

    def median_bandwidth(self, names: Sequence[str] | str,
                         seed_key: Sequence[int] | None = None,
                         max_points: int = 500) -> float:
        """Cached RBF median-heuristic bandwidth of a standardized block.

        Keyed on ``(fingerprint_of(names), seed_key, max_points)``: the
        *content* of the named columns plus the subsample derivation, so
        differently-seeded testers never share a subsampled estimate
        while a re-projected table with identical columns does.
        ``seed_key`` is the entropy tuple the caller derived for the
        subsample draw (see :func:`repro.rng.derived_seed`); ``None``
        uses the bandwidth helper's fixed internal fallback generator.
        """
        key_names = (names,) if isinstance(names, str) else tuple(names)
        key = (self.fingerprint_of(key_names),
               tuple(int(w) for w in seed_key) if seed_key is not None
               else None,
               int(max_points))
        cached = self._bandwidth_cache.get(key)
        if cached is None:
            # Lazy import: the kernel math lives with the testers; at call
            # time the ci package is necessarily already loaded.
            from repro.ci.rcit import median_bandwidth
            rng = (np.random.default_rng(list(key[1]))
                   if seed_key is not None else None)
            cached = median_bandwidth(self.standardized_block(key_names),
                                      max_points=max_points, rng=rng)
            self._bandwidth_cache[key] = cached
        return cached

    def _joint_codes(self, key: tuple[str, ...]) -> tuple[np.ndarray, int]:
        """Mixed-radix combination of per-column codes, then densified."""
        per_column: list[tuple[np.ndarray, int]] = []
        capacity = 1
        for name in key:
            col_codes, col_levels = self.discrete_codes(name)
            capacity *= max(col_levels, 1)
            if capacity > 2 ** 62:
                # Radix overflow: fall back to row-wise unique, whose
                # inverse is already dense.
                stacked = np.round(self.matrix(list(key))).astype(np.int64)
                rows, inverse = np.unique(stacked, axis=0,
                                          return_inverse=True)
                return (inverse.reshape(-1).astype(np.int64),
                        int(rows.shape[0]))
            per_column.append((col_codes, max(col_levels, 1)))
        combined = np.zeros(self._n_rows, dtype=np.int64)
        for col_codes, levels in per_column:
            combined = combined * levels + col_codes
        uniq, inverse = _unique_inverse(combined)
        return inverse.astype(np.int64, copy=False), int(uniq.size)

    def warm_cache(self, names: Iterable[str] | None = None) -> "Table":
        """Precompute the fingerprint and per-column CI caches; returns self.

        Discrete-kind columns additionally get their integer codes built so
        a subsequent burst of CI queries starts from shared encoded state.
        """
        use = list(names) if names is not None else self.columns
        _ = self.fingerprint
        for name in use:
            if self.schema.spec(name).kind.is_discrete:
                self.discrete_codes(name)
            else:
                # Continuous columns are queried as single-column X blocks
                # in phase-2 bursts; pre-standardize them.
                self.standardized_block((name,))
            self.float_column(name)
        return self

    # -- prefix/lineage cache adoption -------------------------------------

    def _adopt_prefix(self, parent: "Table") -> None:
        """Seed this table's incremental caches from its
        :meth:`with_appended_rows` parent (this table's columns are the
        parent's plus appended rows).  Only state the parent has already
        materialised is adopted — adoption never forces a cold pass —
        and every adopted value is exactly what a cold rebuild would
        produce, so observables stay pure functions of column values."""
        n0 = parent.n_rows
        for name in self.columns:
            state = parent._col_hashes.get(name)
            if state is not None and self[name].dtype.kind != "O":
                extended = state.copy()
                hash_array_blocks(extended, self[name][n0:])
                self._col_hashes[name] = extended
            cached = parent._codes_cache.get((name,))
            values = parent._code_values.get(name)
            if cached is not None and values is not None:
                self._prefix_codes[name] = (
                    cached[0], values, parent._code_buffers.get(name))
            block_sums = parent._moment_sums.get(name)
            if block_sums:
                # Every cached entry is a full MOMENT_BLOCK_ROWS block of
                # the parent, hence covers identical rows of this table.
                self._moment_sums[name] = dict(block_sums)

    def _adopt_column_caches(self, parent: "Table",
                             names: Iterable[str]) -> None:
        """Share per-column derived caches with ``parent`` for columns
        carried over *unchanged* (projection / column-addition lineage:
        same name, dtype, kind, and values).  Content-preserving by
        construction, so adopted entries equal a cold rebuild's."""
        shared = {n for n in names
                  if n in parent._data
                  and parent.schema.spec(n).kind is self.schema.spec(n).kind}
        for name in shared:
            state = parent._col_hashes.get(name)
            if state is not None:
                self._col_hashes[name] = state.copy()
            values = parent._code_values.get(name)
            if values is not None:
                self._code_values[name] = values
            flt = parent._float_cols.get(name)
            if flt is not None:
                self._float_cols[name] = flt
            block_sums = parent._moment_sums.get(name)
            if block_sums:
                self._moment_sums[name] = dict(block_sums)
            buffer = parent._col_buffers.get(name)
            if buffer is not None:
                self._col_buffers[name] = buffer
            buffer = parent._code_buffers.get(name)
            if buffer is not None:
                self._code_buffers[name] = buffer
        for key, value in parent._codes_cache.items():
            if shared.issuperset(key):
                self._codes_cache[key] = value
        for key, block in parent._std_blocks.items():
            if shared.issuperset(key):
                self._std_blocks[key] = block
        for key, fp in parent._subset_fingerprints.items():
            if shared.issuperset(key):
                self._subset_fingerprints[key] = fp
        # Bandwidths are keyed on content fingerprints, never names, so
        # entries for replaced columns simply never match again.
        self._bandwidth_cache.update(parent._bandwidth_cache)

    # -- serialization -----------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle without the lazy CI caches (spawn-safe worker shipping).

        The float and discrete-code caches are derived state that can be
        many times the size of the raw columns; a process-pool worker
        rebuilds exactly the codes its shards need via
        :meth:`warm_cache`/lazy access.  The content fingerprint is kept —
        it is a value, already paid for, and pool reuse keys on it.
        """
        state = self.__dict__.copy()
        state["_float_cols"] = {}
        state["_codes_cache"] = {}
        state["_std_blocks"] = {}
        state["_bandwidth_cache"] = {}
        state["_subset_fingerprints"] = {}
        state["_finite"] = {}
        # Running hash states are not picklable (and all prefix state is
        # derived): workers rebuild lazily from the column values.
        state["_col_hashes"] = {}
        state["_code_values"] = {}
        state["_moment_sums"] = {}
        state["_prefix_codes"] = {}
        # Columns pickle as their views' rows only: an unpickled table
        # holds plain arrays and no append buffer.
        state["_col_buffers"] = {}
        state["_code_buffers"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled table and freeze its columns again (numpy
        unpickles arrays writeable)."""
        self.__dict__.update(state)
        for arr in self._data.values():
            arr.setflags(write=False)

    # -- relational operations --------------------------------------------

    def select(self, names: Iterable[str]) -> "Table":
        """Projection: a new table sharing the requested columns."""
        use = list(names)
        data = {n: self[n] for n in use}
        out = Table._unchecked(data, self.schema.select(use), self._n_rows)
        out._adopt_column_caches(self, use)
        return out

    def with_appended_rows(
            self, rows: Mapping[str, np.ndarray | Sequence]) -> "Table":
        """A new table with rows appended — the streaming-growth
        constructor.

        ``rows`` must cover exactly this table's columns (equal-length
        1-D arrays); values are cast to each column's existing dtype and
        the schema (kinds and roles) carries over unchanged, so appended
        values are expected to stay within each column's declared kind.
        A value the cast would change (a fraction into an int column, an
        out-of-range int, NaN into a non-float column, a string longer
        than a fixed-width column) raises :class:`SchemaError` naming the
        column; every tail is checked before any column is written.

        Each grown column is a read-only view of a private append buffer
        with ``n // 8`` spare rows.  The tail is written into the parent
        column's buffer when that column ends exactly where the buffer's
        claimed rows end and the tail fits — O(new rows) — and otherwise
        the column and its tail are copied into a new buffer (see
        :func:`_appended`).  So two appends to one parent never share
        tail rows, no table ever sees rows past its own length, and
        ``rows`` is never aliased.

        The child seeds its incremental caches from this table
        (:meth:`_adopt_prefix`): per-column hash states extend with only
        the appended bytes (fingerprint and single-column
        :meth:`fingerprint_of` become O(new rows)), single-column codes
        write only the tail's codes when no new level appears, and the
        streamed moment pass reuses full-block partial sums.  All
        observables remain bitwise identical to a cold rebuild over the
        concatenated values.
        """
        extra = {name: np.asarray(values) for name, values in rows.items()}
        mismatched = set(extra) ^ self._data.keys()
        if mismatched:
            raise SchemaError(
                f"appended rows must cover exactly the table's columns; "
                f"mismatched: {sorted(mismatched)}")
        lengths = set()
        tails: dict[str, np.ndarray] = {}
        for name in self.columns:
            tail = extra[name]
            if tail.ndim != 1:
                raise SchemaError(
                    f"appended column {name!r} must be 1-D, "
                    f"got shape {tail.shape}")
            lengths.add(tail.shape[0])
            tails[name] = _cast_tail(name, tail, self[name].dtype)
        if len(lengths) > 1:
            raise SchemaError(
                f"appended columns have mismatched lengths: "
                f"{sorted(lengths)}")
        # Every tail is valid: only now may a buffer's rows be claimed.
        data: dict[str, np.ndarray] = {}
        buffers: dict[str, _AppendBuffer] = {}
        for name, tail in tails.items():
            data[name], buffers[name] = _appended(
                self[name], tail, self._col_buffers.get(name))
        n_rows = self._n_rows + (lengths.pop() if lengths else 0)
        child = Table._unchecked(data, self.schema, n_rows)
        child._col_buffers = buffers
        child._adopt_prefix(self)
        return child

    def drop(self, names: Iterable[str]) -> "Table":
        """Projection complement: remove the requested columns."""
        gone = set(names)
        missing = gone - set(self.columns)
        if missing:
            raise SchemaError(f"cannot drop unknown columns: {sorted(missing)}")
        return self.select([n for n in self.columns if n not in gone])

    def take(self, index: np.ndarray) -> "Table":
        """Row selection by integer or boolean index array."""
        idx = np.asarray(index)
        # Advanced indexing returns a fresh array: freeze it, no copy.
        data = {n: _owned_column(n, col[idx]) for n, col in self._data.items()}
        n_rows = next(iter(data.values())).shape[0] if data else 0
        return Table._unchecked(data, self.schema, n_rows)

    def head(self, n: int) -> "Table":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self._n_rows)))

    def with_column(self, name: str, values: np.ndarray | Sequence, role: Role = Role.OTHER,
                    kind: Kind | None = None) -> "Table":
        """A new table with one extra (or replaced) column.

        ``values`` is copied once; every other column is shared with this
        table.
        """
        return self._with_owned_column(name, np.array(values), role, kind)

    def _with_owned_column(self, name: str, arr: np.ndarray, role: Role,
                           kind: Kind | None) -> "Table":
        """:meth:`with_column` over a fresh array the new table owns."""
        arr = _owned_column(name, arr, self._n_rows)
        data = dict(self._data)
        data[name] = arr
        spec = ColumnSpec(name, kind or _infer_kind(arr), role)
        if name in self._data:
            schema = TableSchema([spec if c.name == name else c for c in self.schema])
        else:
            schema = self.schema.add(spec)
        out = Table._unchecked(data, schema, self._n_rows)
        out._adopt_column_caches(self, [n for n in self.columns if n != name])
        return out

    def with_roles(self, roles: Mapping[str, Role]) -> "Table":
        """A new table with reassigned column roles (columns shared)."""
        return Table._unchecked(dict(self._data),
                                self.schema.with_roles(dict(roles)),
                                self._n_rows)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """A new table with columns renamed via ``mapping`` (columns
        shared)."""
        schema = self.schema.rename(dict(mapping))
        data = {mapping.get(n, n): self._data[n] for n in self.columns}
        return Table._unchecked(data, schema, self._n_rows)

    def join(self, other: "Table", on: str, how: str = "inner") -> "Table":
        """Equi-join on a shared key column (the PK-FK join of the paper).

        ``self`` plays the fact table (foreign key, possibly repeated);
        ``other`` must be keyed uniquely by ``on`` (primary key).  Columns of
        ``other`` (minus the key) are appended.  ``how`` is ``"inner"`` or
        ``"left"``; a left join raises if any key is missing on the right,
        making key-integrity violations loud rather than silent NaNs.
        """
        if on not in self or on not in other:
            raise SchemaError(f"join key {on!r} missing from one side")
        keys_right = other[on]
        uniq, first_pos = np.unique(keys_right, return_index=True)
        if uniq.size != keys_right.size:
            raise SchemaError(f"join key {on!r} is not unique on the right side")
        lookup = {k: int(p) for k, p in zip(uniq.tolist(), first_pos.tolist())}
        left_keys = self[on].tolist()
        if how == "inner":
            keep = [i for i, k in enumerate(left_keys) if k in lookup]
        elif how == "left":
            missing = [k for k in left_keys if k not in lookup]
            if missing:
                raise SchemaError(
                    f"left join would drop {len(missing)} rows missing key values"
                )
            keep = list(range(len(left_keys)))
        else:
            raise SchemaError(f"unsupported join type: {how!r}")
        right_rows = np.array([lookup[left_keys[i]] for i in keep], dtype=int)
        out = self.take(np.asarray(keep, dtype=int))
        for col in other.columns:
            if col == on:
                continue
            if col in out:
                raise SchemaError(f"join would duplicate column {col!r}")
            spec = other.schema.spec(col)
            # The gather is a fresh array: the joined table owns it.
            out = out._with_owned_column(col, other[col][right_rows],
                                         spec.role, spec.kind)
        return out

    # -- ML conveniences ----------------------------------------------------

    def split(self, train_fraction: float, seed: SeedLike = None) -> tuple["Table", "Table"]:
        """Shuffled train/test split by row."""
        if not 0.0 < train_fraction < 1.0:
            raise SchemaError(f"train_fraction must be in (0, 1), got {train_fraction}")
        rng = as_generator(seed)
        perm = rng.permutation(self._n_rows)
        cut = int(round(train_fraction * self._n_rows))
        return self.take(perm[:cut]), self.take(perm[cut:])

    def xy(self, feature_names: Sequence[str], target: str | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(X, y)`` matrices for model training."""
        target_name = target or self.schema.target
        if target_name is None:
            raise SchemaError("table has no target column and none was given")
        return self.matrix(feature_names), np.asarray(self[target_name])

    # -- misc ----------------------------------------------------------------

    def to_dict(self) -> dict[str, np.ndarray]:
        """Writeable copies of the columns, in schema order."""
        return {n: np.array(self[n]) for n in self.columns}

    def equals(self, other: "Table") -> bool:
        """Exact equality of schema order, names and cell values."""
        if self.columns != other.columns or self.n_rows != other.n_rows:
            return False
        return all(np.array_equal(self[n], other[n]) for n in self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self._n_rows} rows x {self.n_cols} cols: {self.columns})"
