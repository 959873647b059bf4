"""Property-based tests: d-separation vs brute-force path enumeration,
and the graphoid axioms on random DAGs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal.dag import CausalDAG
from repro.causal.dsep import d_separated
from repro.causal.graphoid import (
    check_composition,
    check_decomposition,
    check_symmetry,
    check_weak_union,
)
from repro.ci.oracle import GraphoidOracleBackend


@st.composite
def random_dags(draw, max_nodes=7):
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((names[i], names[j]))
    return CausalDAG(nodes=names, edges=edges)


def blocked_by_enumeration(dag: CausalDAG, x: str, y: str, z: set) -> bool:
    """Literal Definition 3: every undirected path must be blocked.

    Built from ``dag.edges`` alone, so it shares no code with ``dsep.py``
    or the DAG's own walks.
    """
    edges = set(dag.edges)
    neighbours: dict[str, set[str]] = {}
    parents: dict[str, set[str]] = {}
    for u, v in edges:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
        parents.setdefault(v, set()).add(u)
    z_desc = set(z)  # z and the nodes whose descendant is in z
    stack = list(z)
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in z_desc:
                z_desc.add(parent)
                stack.append(parent)

    def simple_paths(path):
        if path[-1] == y:
            yield path
            return
        for nxt in neighbours.get(path[-1], ()):
            if nxt not in path:
                yield from simple_paths(path + [nxt])

    for path in simple_paths([x]):
        path_blocked = False
        for idx in range(1, len(path) - 1):
            prev, mid, nxt = path[idx - 1], path[idx], path[idx + 1]
            into_mid = (prev, mid) in edges
            is_collider = into_mid and (nxt, mid) in edges
            if is_collider:
                if mid not in z_desc:
                    path_blocked = True
                    break
            else:
                if mid in z:
                    path_blocked = True
                    break
        if not path_blocked:
            return False
    return True


@given(random_dags(), st.data())
@settings(max_examples=120, deadline=None)
def test_dsep_matches_path_enumeration(dag, data):
    nodes = dag.nodes
    x = data.draw(st.sampled_from(nodes))
    y = data.draw(st.sampled_from([n for n in nodes if n != x]))
    rest = [n for n in nodes if n not in (x, y)]
    z = set(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else set()
    assert d_separated(dag, x, y, z) == blocked_by_enumeration(dag, x, y, z)


@given(random_dags(), st.data())
@settings(max_examples=80, deadline=None)
def test_graphoid_axioms_hold_for_dsep(dag, data):
    """Decomposition, composition, weak union, symmetry on the d-sep oracle."""
    nodes = dag.nodes
    backend = GraphoidOracleBackend(dag)
    # Draw four disjoint nonempty-ish sets A, B, C, Z.
    pool = list(nodes)
    a = {data.draw(st.sampled_from(pool))}
    pool = [n for n in pool if n not in a]
    b = {data.draw(st.sampled_from(pool))}
    pool = [n for n in pool if n not in b]
    c = {data.draw(st.sampled_from(pool))}
    pool = [n for n in pool if n not in c]
    z = set(data.draw(st.lists(st.sampled_from(pool), unique=True))) if pool else set()

    assert check_decomposition(backend, a, b, c, z)
    assert check_composition(backend, a, b, c, z)
    assert check_weak_union(backend, a, b, c, z)
    assert check_symmetry(backend, a, b, z)


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_mutilation_removes_all_sensitive_influence(dag):
    """After removing incoming edges of every non-root, only root edges remain."""
    non_roots = [n for n in dag.nodes if dag.parents(n)]
    mutilated = dag.remove_incoming(non_roots) if non_roots else dag
    for node in non_roots:
        assert mutilated.parents(node) == set()


@given(random_dags(), st.data())
@settings(max_examples=60, deadline=None)
def test_separated_pairs_stay_separated_in_subgraph(dag, data):
    """Removing nodes cannot create new active paths."""
    nodes = dag.nodes
    x = data.draw(st.sampled_from(nodes))
    y = data.draw(st.sampled_from([n for n in nodes if n != x]))
    if not d_separated(dag, x, y, set()):
        return
    removable = [n for n in nodes if n not in (x, y)]
    if not removable:
        return
    drop = data.draw(st.sampled_from(removable))
    sub = dag.subgraph([n for n in nodes if n != drop])
    assert d_separated(sub, x, y, set())
