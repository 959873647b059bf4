"""d-separation.

Implements Definition 3 of the paper via the standard "reachable via active
trail" algorithm (Bayes-ball / Koller & Friedman Algorithm 3.1), which runs in
O(|V| + |E|) rather than enumerating paths.  A path is blocked by ``Z`` iff it
contains a chain or fork whose middle node is in ``Z``, or a collider whose
middle node has no descendant in ``Z``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.causal.dag import CausalDAG
from repro.exceptions import GraphError


def _as_set(nodes: Iterable[str] | str) -> set[str]:
    if isinstance(nodes, str):
        return {nodes}
    return set(nodes)


def active_reachable(dag: CausalDAG, sources: Iterable[str] | str,
                     given: Iterable[str] | str = ()) -> set[str]:
    """All nodes reachable from ``sources`` via a trail active given ``given``.

    The traversal state is ``(node, direction)`` where direction records
    whether we arrived along an incoming (``down``) or outgoing (``up``)
    edge; collider activation is handled through the ancestors-of-Z set.
    """
    src = _as_set(sources)
    z = _as_set(given)
    for node in src | z:
        if node not in dag:
            raise GraphError(f"unknown node: {node!r}")
    # Nodes that are in Z or have a descendant in Z (collider openers).
    z_or_anc = z | dag.ancestors_of(z)

    # direction: "up" = arrived from a child (moving against edges is fine),
    # "down" = arrived from a parent.
    queue: deque[tuple[str, str]] = deque((s, "up") for s in src)
    visited: set[tuple[str, str]] = set()
    reachable: set[str] = set()
    while queue:
        node, direction = queue.popleft()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node not in z:
            reachable.add(node)
        if direction == "up" and node not in z:
            # Trail may continue to parents (up) and children (down).
            for parent in dag.parents(node):
                queue.append((parent, "up"))
            for child in dag.children(node):
                queue.append((child, "down"))
        elif direction == "down":
            if node not in z:
                # Chain: continue downward.
                for child in dag.children(node):
                    queue.append((child, "down"))
            if node in z_or_anc:
                # Collider (or ancestor of conditioned collider): bounce up.
                for parent in dag.parents(node):
                    queue.append((parent, "up"))
    return reachable - src


def d_separated(dag: CausalDAG, x: Iterable[str] | str, y: Iterable[str] | str,
                z: Iterable[str] | str = ()) -> bool:
    """``True`` iff every path between ``x`` and ``y`` is blocked by ``z``.

    >>> g = CausalDAG(edges=[("a", "b"), ("b", "c")])
    >>> d_separated(g, "a", "c", "b")
    True
    >>> d_separated(g, "a", "c")
    False
    """
    xs, ys, zs = _as_set(x), _as_set(y), _as_set(z)
    unknown = [n for n in xs | ys | zs if n not in dag]
    if unknown:
        raise GraphError(f"unknown nodes: {sorted(unknown)}")
    if xs & ys:
        raise GraphError(f"X and Y overlap: {sorted(xs & ys)}")
    if (xs | ys) & zs:
        raise GraphError(f"Z overlaps X or Y: {sorted((xs | ys) & zs)}")
    if not xs or not ys:
        return True
    return not (active_reachable(dag, xs, zs) & ys)


def d_connected(dag: CausalDAG, x: Iterable[str] | str, y: Iterable[str] | str,
                z: Iterable[str] | str = ()) -> bool:
    """Negation of :func:`d_separated`."""
    return not d_separated(dag, x, y, z)
