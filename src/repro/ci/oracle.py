"""Graph-oracle CI test: answer queries by d-separation on a known DAG.

Synthetic experiments (Figures 4-5, §5.3) need ground truth: the oracle
makes CI answers exact, so test counts measure *algorithmic* cost with no
statistical noise, exactly as the paper's complexity experiments intend.
The oracle also powers the property-based tests that certify SeqSel/GrpSel
agreement under faithfulness.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.causal.dag import CausalDAG
from repro.causal.dsep import active_reachable, d_separated
from repro.ci.base import CIQuery, CIResult, CITester, as_queries
from repro.data.table import Table
from repro.exceptions import CITestError


class OracleCI(CITester):
    """CI tester backed by d-separation on a ground-truth DAG.

    The ``table`` argument of :meth:`test` and :meth:`test_batch` is
    accepted (for interface compatibility) but ignored; answers come from
    the graph, and every queried name must be a node of it.

    Selection algorithms issue thousands of queries sharing the same
    ``(Y, Z)`` pair (phase 1: Y = S with Z ranging over a couple of
    admissible subsets; phase 2: Y = target with one fixed Z), so the
    oracle caches the set d-connected to Y given Z per ``(Y, Z)`` pair and
    answers each query with a set-disjointness check against its X — this
    is what makes the Figure 4/5 sweeps and the §5.3 recovery graphs at
    n = 5000 run in seconds rather than hours.  d-separation is symmetric,
    so the walk starts from Y even when X is the smaller side.  Nodes are
    checked against the DAG once per distinct ``(Y, Z)``, when its
    reachable set is computed; a query then checks only its X.
    """

    method = "oracle"

    def __init__(self, dag: CausalDAG, alpha: float = 0.01) -> None:
        super().__init__(alpha=alpha)
        self.dag = dag
        self._reach_cache: dict[tuple, frozenset[str]] = {}
        self._cache_token: tuple | None = None

    def cache_token(self) -> tuple:
        # Verdicts come from the graph, not the data, so the graph is the
        # configuration: two oracles over different DAGs must never share
        # persistent cache entries even when the tables fingerprint alike.
        if self._cache_token is None:
            digest = hashlib.blake2b(digest_size=8)
            for node in sorted(self.dag.nodes):
                digest.update(node.encode())
                digest.update(b"\x00")
            for u, v in sorted(self.dag.edges):
                digest.update(f"{u}->{v}".encode())
                digest.update(b"\x00")
            self._cache_token = (("dag", digest.hexdigest()),)
        return self._cache_token

    def _require(self, names: tuple[str, ...]) -> None:
        missing = [name for name in names if name not in self.dag]
        if missing:
            raise CITestError(f"oracle DAG lacks nodes: {missing}")

    def _connected_set(self, y: tuple[str, ...],
                       given: tuple[str, ...]) -> frozenset[str]:
        key = (y, given)
        cached = self._reach_cache.get(key)
        if cached is None:
            self._require(y + given)
            cached = frozenset(active_reachable(self.dag, y, given))
            self._reach_cache[key] = cached
        return cached

    def test_batch(self, table: Table | None,
                   queries: Iterable[CIQuery | tuple]) -> list[CIResult]:
        results = []
        pair: tuple = ()
        for query in as_queries(queries):
            # One reachable set per (Y, Z): queries from one QueryFrame
            # share their y/z tuples, so this comparison is by identity
            # and a long Z is not re-hashed.
            if (query.y, query.z) != pair:
                pair = (query.y, query.z)
                reach = self._connected_set(*pair)
            self._require(query.x)
            independent = reach.isdisjoint(query.x)
            # Oracle "p-values" are degenerate but keep the CIResult contract.
            results.append(CIResult(
                independent=independent,
                p_value=1.0 if independent else 0.0,
                statistic=0.0 if independent else float("inf"),
                query=query,
                method=self.method,
            ))
        return results


class GraphoidOracleBackend:
    """Adapter exposing :class:`OracleCI` as a graphoid backend."""

    def __init__(self, dag: CausalDAG) -> None:
        self.dag = dag

    def independent(self, x, y, z=()):
        return d_separated(self.dag, set(x), set(y), set(z))
