"""Deterministic random-number plumbing.

Every stochastic component in the library accepts a ``seed`` argument that
may be ``None``, an ``int``, or a :class:`numpy.random.Generator`.  This
module centralises the conversion so components never construct generators
ad hoc, which keeps experiments reproducible end to end.
"""

from __future__ import annotations

import hashlib

import numpy as np

SeedLike = int | np.random.Generator | None


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Passing an existing generator returns it unchanged, so a single
    generator can be threaded through a pipeline to make the whole run a
    function of one seed.

    >>> g = as_generator(7)
    >>> as_generator(g) is g
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``seed``.

    Children are statistically independent streams; use one per worker or
    per repetition so adding repetitions does not perturb earlier ones.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    root = as_generator(seed)
    return [np.random.default_rng(s) for s in root.bit_generator.seed_seq.spawn(n)] if isinstance(
        seed, np.random.Generator
    ) else [np.random.default_rng(s) for s in np.random.SeedSequence(_seed_entropy(seed)).spawn(n)]


def value_seed(seed: SeedLike) -> int:
    """The non-negative ``int`` a seed stands for, fixed once.

    CI testers and GrpSel call this in their constructors, so a verdict
    depends only on the data, the query and the tester's configuration —
    never on execution order.  An ``int`` (or ``np.integer``: ``np.int64(5)``
    means ``5``) passes through, ``None`` draws fresh entropy once, and a
    live ``Generator`` contributes exactly one draw.  The result is what
    ``cache_token()`` records, so stores and pickled worker copies see the
    same seed as the constructing process.

    >>> value_seed(np.int64(7))
    7
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(2 ** 63))
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"unsupported seed type: {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return int(seed)


def derived_seed(seed: int | np.integer, *parts) -> tuple[int, ...]:
    """Deterministic child-seed entropy for a value seed and structural key.

    The continuous CI testers derive one generator per ``(seed, block)``
    so a query's random draws depend only on its *own* variable sets —
    never on how many other queries share a batch, their order, or which
    executor shard evaluated them.  That independence is what lets the
    fused batch kernels share a conditioning set's feature map across
    queries while staying bitwise identical to sequential evaluation.

    The key parts are hashed (blake2b) into :class:`numpy.random.SeedSequence`
    entropy words appended to the value seed, so distinct structural keys
    yield statistically independent streams and the same key always yields
    the same stream, in any process.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(
            f"derived_seed requires a value (int) seed, got "
            f"{type(seed).__name__}; convert it once with value_seed()")
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=16).digest()
    words = np.frombuffer(digest, dtype=np.uint32)
    return (int(seed), *(int(w) for w in words))


def derive(seed: int | np.integer, *parts) -> np.random.Generator:
    """Child generator seeded with :func:`derived_seed(seed, *parts)`."""
    return np.random.default_rng(derived_seed(seed, *parts))


def _seed_entropy(seed: SeedLike) -> int | None:
    """Extract an entropy value usable by :class:`numpy.random.SeedSequence`."""
    if seed is None:
        return None
    if isinstance(seed, int):
        return seed
    raise TypeError(f"unsupported seed type: {type(seed).__name__}")
