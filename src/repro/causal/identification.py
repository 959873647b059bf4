"""Backdoor adjustment and the paper's Lemma 10 as graph checks.

The paper's proofs (Lemmas 5, 6, 9, 10) are applications of Pearl's
do-calculus.  This module makes two of their graphical side-conditions
executable so they can be *checked* on any concrete graph:

* :func:`is_backdoor_set` / :func:`find_backdoor_set` — covariate
  adjustment by the backdoor criterion,
* :func:`lemma10_condition` — Lemma 10's deletion of ``do(S)`` given the
  admissible and selected features.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from repro.causal.dag import CausalDAG
from repro.causal.dsep import d_separated
from repro.exceptions import GraphError


def is_backdoor_set(dag: CausalDAG, treatment: str, outcome: str,
                    adjustment: Iterable[str]) -> bool:
    """Backdoor criterion: Z blocks all X <- ... paths and has no X-descendants."""
    zs = set(adjustment)
    if treatment in zs or outcome in zs:
        raise GraphError("adjustment set must exclude treatment and outcome")
    if zs & dag.descendants(treatment):
        return False
    # Block all backdoor paths: d-separation in the graph with X's outgoing
    # edges removed (leaving only paths that start with an edge into X).
    g = dag.remove_outgoing([treatment])
    return d_separated(g, treatment, outcome, zs)


def find_backdoor_set(dag: CausalDAG, treatment: str, outcome: str,
                      max_size: int | None = None) -> set[str] | None:
    """Smallest backdoor adjustment set, or ``None`` if none exists."""
    forbidden = dag.descendants(treatment) | {treatment, outcome}
    pool = sorted(set(dag.nodes) - forbidden)
    limit = len(pool) if max_size is None else min(max_size, len(pool))
    for size in range(limit + 1):
        for combo in combinations(pool, size):
            if is_backdoor_set(dag, treatment, outcome, combo):
                return set(combo)
    return None


def lemma10_condition(dag: CausalDAG, prediction: str,
                      sensitive: Iterable[str], admissible: Iterable[str],
                      features: Iterable[str]) -> bool:
    """Lemma 10: ``P(Y' | do(A), do(S), T) = P(Y' | do(A), T)``.

    The check: with incoming edges of A removed, Y' is d-separated from S
    given A ∪ T.  Under Assumption 2 the prediction node's parents are
    exactly A ∪ T, so the condition reduces to graph surgery + d-separation.
    """
    a = set(admissible)
    t = set(features)
    s = set(sensitive)
    g = dag.remove_incoming(a) if a else dag
    return d_separated(g, prediction, s, a | t)
