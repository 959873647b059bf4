"""CPDAG: partially directed graphs output by constraint-based discovery.

A CPDAG has directed edges (compelled orientations) and undirected edges
(Markov-equivalence ambiguity).  :meth:`CPDAG.possible_descendants` is the
query Fair-PC needs: a node is a *possible* descendant of S if some DAG in
the equivalence class makes it one — conservatively, any partially-directed
path from S using directed-forward or undirected edges.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.exceptions import GraphError


class CPDAG:
    """Mixed graph with directed and undirected edges."""

    def __init__(self, nodes: Iterable[str]) -> None:
        self._nodes: list[str] = list(dict.fromkeys(nodes))
        self._directed: set[tuple[str, str]] = set()
        self._undirected: set[frozenset[str]] = set()

    # -- mutation (used by the PC algorithm) --------------------------------

    def add_undirected(self, u: str, v: str) -> None:
        self._check(u, v)
        if (u, v) in self._directed or (v, u) in self._directed:
            raise GraphError(f"edge {u}-{v} already directed")
        self._undirected.add(frozenset((u, v)))

    def orient(self, u: str, v: str) -> None:
        """Turn the undirected edge u-v into u -> v."""
        key = frozenset((u, v))
        if key not in self._undirected:
            raise GraphError(f"no undirected edge between {u} and {v}")
        self._undirected.discard(key)
        self._directed.add((u, v))

    def _check(self, *nodes: str) -> None:
        missing = [n for n in nodes if n not in self._nodes]
        if missing:
            raise GraphError(f"unknown nodes: {missing}")

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return list(self._nodes)

    @property
    def directed_edges(self) -> set[tuple[str, str]]:
        return set(self._directed)

    @property
    def undirected_edges(self) -> set[tuple[str, str]]:
        return {tuple(sorted(e)) for e in self._undirected}

    def has_any_edge(self, u: str, v: str) -> bool:
        return ((u, v) in self._directed or (v, u) in self._directed
                or frozenset((u, v)) in self._undirected)

    def is_directed(self, u: str, v: str) -> bool:
        return (u, v) in self._directed

    def is_undirected(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self._undirected

    def neighbors(self, node: str) -> set[str]:
        """All nodes adjacent by any edge type."""
        self._check(node)
        out = {v for (u, v) in self._directed if u == node}
        out |= {u for (u, v) in self._directed if v == node}
        for edge in self._undirected:
            if node in edge:
                out |= set(edge) - {node}
        return out

    def undirected_neighbors(self, node: str) -> set[str]:
        self._check(node)
        out: set[str] = set()
        for edge in self._undirected:
            if node in edge:
                out |= set(edge) - {node}
        return out

    def parents(self, node: str) -> set[str]:
        """Nodes with a compelled edge into ``node``."""
        self._check(node)
        return {u for (u, v) in self._directed if v == node}

    def children(self, node: str) -> set[str]:
        self._check(node)
        return {v for (u, v) in self._directed if u == node}

    def possible_descendants(self, sources: Iterable[str]) -> set[str]:
        """Nodes reachable by directed-forward or undirected steps.

        Conservative over the Markov equivalence class: if *any* member DAG
        could make ``v`` a descendant of a source, ``v`` is included.
        """
        frontier = deque(sources)
        seen: set[str] = set(frontier)
        while frontier:
            node = frontier.popleft()
            for nxt in self.children(node) | self.undirected_neighbors(node):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen - set(sources)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CPDAG({len(self._nodes)} nodes, {len(self._directed)} directed, "
                f"{len(self._undirected)} undirected)")
