"""Causal DAG representation.

A validated, immutable graph over named variables exposing exactly the
graph queries the paper needs: parents/children/ancestors/descendants,
topological order, and graph surgery (removing incoming edges, the
``G_bar(A)`` mutilation used in interventional fairness).  Every edit
returns a new DAG, so each node's parent and child sets and the
topological order are built once, in plain dicts, when the DAG is made.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Mapping

from repro.exceptions import GraphError


class CausalDAG:
    """A directed acyclic graph over named variables.

    Nodes keep the order they were given in (the ``nodes`` argument, then
    edge endpoints as first seen), and edges are grouped by parent in that
    order, each parent's children in the order first given.

    >>> g = CausalDAG(nodes=["s", "x", "y"], edges=[("s", "x"), ("x", "y")])
    >>> sorted(g.descendants("s"))
    ['x', 'y']
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        # Insertion-ordered children per node; dict keys drop duplicates.
        succ: dict[str, dict[str, None]] = {node: {} for node in nodes}
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on {u!r}")
            succ.setdefault(u, {})[v] = None
            succ.setdefault(v, {})
        pred: dict[str, list[str]] = {node: [] for node in succ}
        for u, children in succ.items():
            for v in children:
                pred[v].append(u)
        self._nodes = tuple(succ)
        self._edges = tuple((u, v) for u, children in succ.items()
                            for v in children)
        self._children = {u: frozenset(vs) for u, vs in succ.items()}
        self._parents = {v: frozenset(us) for v, us in pred.items()}
        self._order = self._topological_sort()

    def _topological_sort(self) -> tuple[str, ...]:
        """Kahn's algorithm, always emitting the smallest ready name.

        The order is a pure function of the graph:
        ``StructuralCausalModel.sample`` draws its random streams in it,
        and ``nodes_by_role`` lists every candidate by it.
        """
        indegree = {node: len(us) for node, us in self._parents.items()}
        ready = [node for node, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for child in self._children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) < len(self._nodes):
            stuck = sorted(set(self._nodes) - set(order))
            raise GraphError(f"graph contains a cycle among {stuck}")
        return tuple(order)

    # -- construction ------------------------------------------------------

    def add_edge(self, u: str, v: str) -> "CausalDAG":
        """New DAG with one extra edge (validates acyclicity)."""
        return CausalDAG(self._nodes, self._edges + ((u, v),))

    def add_node(self, node: str) -> "CausalDAG":
        """New DAG with one extra (isolated) node."""
        return CausalDAG(self._nodes + (node,), self._edges)

    # -- basic queries -------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """All node names."""
        return list(self._nodes)

    @property
    def edges(self) -> list[tuple[str, str]]:
        """All directed edges ``(parent, child)``."""
        return list(self._edges)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, node: str) -> bool:
        return node in self._parents

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def has_edge(self, u: str, v: str) -> bool:
        """``True`` iff the directed edge ``u -> v`` exists."""
        return v in self._children.get(u, ())

    def _require(self, *nodes: str) -> None:
        missing = [n for n in nodes if n not in self._parents]
        if missing:
            raise GraphError(f"unknown nodes: {missing}")

    def parents(self, node: str) -> frozenset[str]:
        """Direct causes of ``node``."""
        try:
            return self._parents[node]
        except KeyError:
            raise GraphError(f"unknown nodes: {[node]}") from None

    def children(self, node: str) -> frozenset[str]:
        """Direct effects of ``node``."""
        try:
            return self._children[node]
        except KeyError:
            raise GraphError(f"unknown nodes: {[node]}") from None

    def _reach(self, step: Mapping[str, frozenset[str]],
               nodes: Iterable[str]) -> set[str]:
        """Nodes one or more ``step`` edges away from any of ``nodes``."""
        stack = list(nodes)
        self._require(*stack)
        out: set[str] = set()
        while stack:
            for nxt in step[stack.pop()]:
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return out

    def ancestors(self, node: str) -> set[str]:
        """All (strict) ancestors of ``node``."""
        return self._reach(self._parents, (node,))

    def descendants(self, node: str) -> set[str]:
        """All (strict) descendants of ``node``."""
        return self._reach(self._children, (node,))

    def ancestors_of(self, nodes: Iterable[str]) -> set[str]:
        """Union of strict ancestors over a node set, in one reverse walk."""
        return self._reach(self._parents, nodes)

    def descendants_of(self, nodes: Iterable[str]) -> set[str]:
        """Union of strict descendants over a node set, in one walk."""
        return self._reach(self._children, nodes)

    def topological_order(self) -> list[str]:
        """Nodes in topological order, the smallest ready name first."""
        return list(self._order)

    def roots(self) -> set[str]:
        """Nodes with no parents (exogenous observables)."""
        return {n for n, parents in self._parents.items() if not parents}

    # -- graph surgery ---------------------------------------------------------

    def remove_incoming(self, nodes: Iterable[str]) -> "CausalDAG":
        """``G`` with incoming edges of ``nodes`` removed.

        This is Pearl's mutilation for ``do(nodes)`` — the graph the paper
        calls ``G_bar(A)`` when intervening on the admissible set.
        """
        cut = set(nodes)
        self._require(*cut)
        kept = [(u, v) for u, v in self._edges if v not in cut]
        return CausalDAG(self._nodes, kept)

    def remove_outgoing(self, nodes: Iterable[str]) -> "CausalDAG":
        """``G`` with outgoing edges of ``nodes`` removed (the backdoor
        criterion's ``G_underbar(X)``)."""
        cut = set(nodes)
        self._require(*cut)
        kept = [(u, v) for u, v in self._edges if u not in cut]
        return CausalDAG(self._nodes, kept)

    def subgraph(self, nodes: Iterable[str]) -> "CausalDAG":
        """Induced subgraph on ``nodes``."""
        keep = set(nodes)
        self._require(*keep)
        return CausalDAG(
            keep, [(u, v) for u, v in self._edges if u in keep and v in keep]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CausalDAG({self.n_nodes} nodes, {self.n_edges} edges)"
