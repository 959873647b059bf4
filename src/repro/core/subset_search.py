"""Search strategies for the ``∃ A' ⊆ A`` condition of phase 1.

Line 4 of Algorithm 1 asks whether *some* subset of the admissible set
d-separates a candidate from the sensitive attributes.  The paper notes the
worst case is ``O(2^|A|)`` but ``|A|`` is a small constant in practice.  We
provide:

* :class:`ExhaustiveSubsets` — all subsets, smallest first (exact),
* :class:`FullSetOnly` — test only ``A`` itself (what suffices when no
  admissible variable is a collider between S and the candidate; cheapest),
* :class:`GreedySubsets` — the empty set, the full set, then singletons and
  leave-one-out sets; a practical middle ground.

Each strategy yields candidate conditioning sets; callers stop at the first
independent verdict.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from repro.ci.base import CIQuery, QueryFrame, canonical_names


class SubsetStrategy:
    """Enumerate conditioning subsets of the admissible set."""

    name = "base"

    def subsets(self, admissible: Sequence[str]) -> Iterator[tuple[str, ...]]:
        raise NotImplementedError

    def max_tests(self, n_admissible: int) -> int:
        """Upper bound on subsets enumerated (for complexity accounting)."""
        raise NotImplementedError

    def phase1_queries(self, group: Sequence[str] | str,
                       sensitive: Sequence[str],
                       admissible: Sequence[str]) -> Iterator[CIQuery]:
        """Lazily yield the phase-1 batch ``group ⊥ S | A'`` over all subsets.

        Callers submit the stream to
        :meth:`~repro.ci.base.CITestLedger.test_batch` with
        ``stop_on_independent=True``, which consumes it lazily and preserves
        the sequential first-independent-verdict-wins semantics (and test
        counts) exactly — queries past the stopping point are never built.
        """
        group_names = [group] if isinstance(group, str) else list(group)
        for subset in self.subsets(admissible):
            yield CIQuery.make(group_names, list(sensitive), list(subset))

    def phase1_streams(self, units: Sequence[Sequence[str] | str],
                       sensitive: Sequence[str],
                       admissible: Sequence[str]) -> list[Iterator[CIQuery]]:
        """One lazy phase-1 query stream per unit — the ranked-stream
        protocol of the wavefront engine.

        **Rank alignment contract**: :meth:`subsets` is a deterministic
        function of the admissible list alone, so at rank ``k`` *every*
        stream's query conditions on the *same* subset ``A'_k`` — which is
        exactly what makes wave ``k`` of
        :meth:`~repro.ci.base.CITestLedger.test_waves` a single
        same-``(S, A'_k)`` fusion group for the batched backend kernels.
        A strategy whose enumeration depended on the unit under test would
        still be *correct* under wave scheduling (streams only ever meet
        in shared batches, never exchange verdicts) but would forfeit the
        fusion, so keep ``subsets`` unit-independent.

        Each rank's ``(S, A'_k)`` pair is built once, as one
        :class:`~repro.ci.base.QueryFrame`, the first time any stream
        reaches rank ``k`` (so :meth:`subsets` is pulled lazily, once per
        rank, however many streams there are), and each unit's X is
        sorted once per stream.  Streams yield exactly
        :meth:`phase1_queries`.
        """
        subsets = iter(self.subsets(admissible))
        frames: list[QueryFrame] = []

        def frame_at(rank: int) -> QueryFrame | None:
            if rank == len(frames):
                subset = next(subsets, None)
                if subset is None:
                    return None
                frames.append(CIQuery.against(sensitive, subset))
            return frames[rank]

        def stream(unit: Sequence[str] | str) -> Iterator[CIQuery]:
            xs = canonical_names(unit)
            rank = 0
            while (frame := frame_at(rank)) is not None:
                yield frame.bind(xs)
                rank += 1

        return [stream(unit) for unit in units]


class ExhaustiveSubsets(SubsetStrategy):
    """Every subset of ``A``, by increasing size (2^|A| worst case)."""

    name = "exhaustive"

    def subsets(self, admissible: Sequence[str]) -> Iterator[tuple[str, ...]]:
        names = list(admissible)
        for size in range(len(names) + 1):
            for combo in combinations(names, size):
                yield combo

    def max_tests(self, n_admissible: int) -> int:
        return 2 ** n_admissible


class FullSetOnly(SubsetStrategy):
    """Only the full admissible set (1 test per candidate).

    Sound but not complete: misses features whose separating set is a
    *strict* subset of ``A`` (the Figure 1(c) case where conditioning on a
    collider admissible would open a path).
    """

    name = "full-set"

    def subsets(self, admissible: Sequence[str]) -> Iterator[tuple[str, ...]]:
        yield tuple(admissible)

    def max_tests(self, n_admissible: int) -> int:
        return 1


class MarginalThenFull(SubsetStrategy):
    """The empty set then the full set (2 tests per candidate).

    Covers the two dominant cases in practice: features independent of S
    outright (Figure 1(b)'s X3) and features mediated by A (X1).
    """

    name = "marginal+full"

    def subsets(self, admissible: Sequence[str]) -> Iterator[tuple[str, ...]]:
        yield ()
        if admissible:
            yield tuple(admissible)

    def max_tests(self, n_admissible: int) -> int:
        return 2 if n_admissible else 1


class GreedySubsets(SubsetStrategy):
    """Empty set, full set, singletons, then leave-one-out sets.

    Linear in |A| rather than exponential, and catches the collider cases
    (Figure 1(c): ``X3 ⊥ S | A2`` with A2 a strict subset).
    """

    name = "greedy"

    def subsets(self, admissible: Sequence[str]) -> Iterator[tuple[str, ...]]:
        names = list(admissible)
        seen: set[tuple[str, ...]] = set()

        def emit(combo: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
            if combo not in seen:
                seen.add(combo)
                yield combo

        yield from emit(())
        yield from emit(tuple(names))
        for name in names:
            yield from emit((name,))
        for name in names:
            rest = tuple(n for n in names if n != name)
            yield from emit(rest)

    def max_tests(self, n_admissible: int) -> int:
        if n_admissible <= 1:
            return n_admissible + 1
        return 2 * n_admissible + 2


def strategy_by_name(name: str) -> SubsetStrategy:
    """Look up a strategy by its ``name`` attribute."""
    strategies: dict[str, type[SubsetStrategy]] = {
        cls.name: cls
        for cls in (ExhaustiveSubsets, FullSetOnly, MarginalThenFull, GreedySubsets)
    }
    if name not in strategies:
        raise ValueError(f"unknown subset strategy {name!r}; "
                         f"choose from {sorted(strategies)}")
    return strategies[name]()
