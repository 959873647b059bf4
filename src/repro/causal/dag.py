"""Causal DAG representation.

Thin, validated wrapper around :class:`networkx.DiGraph` exposing exactly the
graph queries the paper needs: parents/children/ancestors/descendants,
topological order, and graph surgery (removing incoming edges, the
``G_bar(A)`` mutilation used in interventional fairness).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import networkx as nx

from repro.exceptions import GraphError


class CausalDAG:
    """A directed acyclic graph over named variables.

    >>> g = CausalDAG(nodes=["s", "x", "y"], edges=[("s", "x"), ("x", "y")])
    >>> sorted(g.descendants("s"))
    ['x', 'y']
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on {u!r}")
            graph.add_edge(u, v)
        if not nx.is_directed_acyclic_graph(graph):
            cycle = nx.find_cycle(graph)
            raise GraphError(f"graph contains a cycle: {cycle}")
        self._graph = graph

    # -- construction ------------------------------------------------------

    @classmethod
    def from_networkx(cls, graph: nx.DiGraph) -> "CausalDAG":
        """Wrap an existing digraph (validated for acyclicity)."""
        return cls(graph.nodes, graph.edges)

    def copy(self) -> "CausalDAG":
        """Independent copy."""
        return CausalDAG(self.nodes, self.edges)

    def add_edge(self, u: str, v: str) -> "CausalDAG":
        """New DAG with one extra edge (validates acyclicity)."""
        return CausalDAG(self.nodes, list(self.edges) + [(u, v)])

    def add_node(self, node: str) -> "CausalDAG":
        """New DAG with one extra (isolated) node."""
        return CausalDAG(list(self.nodes) + [node], self.edges)

    # -- basic queries -------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """All node names."""
        return list(self._graph.nodes)

    @property
    def edges(self) -> list[tuple[str, str]]:
        """All directed edges ``(parent, child)``."""
        return list(self._graph.edges)

    @property
    def n_nodes(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def n_edges(self) -> int:
        return self._graph.number_of_edges()

    def __contains__(self, node: str) -> bool:
        return node in self._graph

    def __iter__(self) -> Iterator[str]:
        return iter(self._graph.nodes)

    def has_edge(self, u: str, v: str) -> bool:
        """``True`` iff the directed edge ``u -> v`` exists."""
        return self._graph.has_edge(u, v)

    def _require(self, *nodes: str) -> None:
        missing = [n for n in nodes if n not in self._graph]
        if missing:
            raise GraphError(f"unknown nodes: {missing}")

    def parents(self, node: str) -> set[str]:
        """Direct causes of ``node``."""
        self._require(node)
        return set(self._graph.predecessors(node))

    def children(self, node: str) -> set[str]:
        """Direct effects of ``node``."""
        self._require(node)
        return set(self._graph.successors(node))

    def ancestors(self, node: str) -> set[str]:
        """All (strict) ancestors of ``node``."""
        self._require(node)
        return set(nx.ancestors(self._graph, node))

    def descendants(self, node: str) -> set[str]:
        """All (strict) descendants of ``node``."""
        self._require(node)
        return set(nx.descendants(self._graph, node))

    def ancestors_of(self, nodes: Iterable[str]) -> set[str]:
        """Union of strict ancestors over a node set, in one reverse walk."""
        stack = list(nodes)
        self._require(*stack)
        predecessors = self._graph.pred
        out: set[str] = set()
        while stack:
            for parent in predecessors[stack.pop()]:
                if parent not in out:
                    out.add(parent)
                    stack.append(parent)
        return out

    def descendants_of(self, nodes: Iterable[str]) -> set[str]:
        """Union of strict descendants over a node set."""
        out: set[str] = set()
        for node in nodes:
            out |= self.descendants(node)
        return out

    def topological_order(self) -> list[str]:
        """Nodes in a (deterministic) topological order."""
        return list(nx.lexicographical_topological_sort(self._graph))

    def roots(self) -> set[str]:
        """Nodes with no parents (exogenous observables)."""
        return {n for n in self._graph if self._graph.in_degree(n) == 0}

    # -- graph surgery ---------------------------------------------------------

    def remove_incoming(self, nodes: Iterable[str]) -> "CausalDAG":
        """``G`` with incoming edges of ``nodes`` removed.

        This is Pearl's mutilation for ``do(nodes)`` — the graph the paper
        calls ``G_bar(A)`` when intervening on the admissible set.
        """
        cut = set(nodes)
        self._require(*cut)
        kept = [(u, v) for u, v in self.edges if v not in cut]
        return CausalDAG(self.nodes, kept)

    def remove_outgoing(self, nodes: Iterable[str]) -> "CausalDAG":
        """``G`` with outgoing edges of ``nodes`` removed (the backdoor
        criterion's ``G_underbar(X)``)."""
        cut = set(nodes)
        self._require(*cut)
        kept = [(u, v) for u, v in self.edges if u not in cut]
        return CausalDAG(self.nodes, kept)

    def subgraph(self, nodes: Iterable[str]) -> "CausalDAG":
        """Induced subgraph on ``nodes``."""
        keep = set(nodes)
        self._require(*keep)
        return CausalDAG(
            keep, [(u, v) for u, v in self.edges if u in keep and v in keep]
        )

    def moralize(self) -> nx.Graph:
        """Moral graph: undirected skeleton plus married parents."""
        moral = nx.Graph()
        moral.add_nodes_from(self.nodes)
        moral.add_edges_from(self.edges)
        for node in self.nodes:
            parents = sorted(self.parents(node))
            for i, p in enumerate(parents):
                for q in parents[i + 1:]:
                    moral.add_edge(p, q)
        return moral

    def to_networkx(self) -> nx.DiGraph:
        """Copy of the underlying digraph."""
        return self._graph.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CausalDAG({self.n_nodes} nodes, {self.n_edges} edges)"
