"""Kind-aware CI test dispatch.

Real datasets mix discrete and continuous columns; this tester routes each
query to the appropriate backend: the G-test when every variable in the
query is discrete, otherwise RCIT (which handles mixed data since RFFs only
need numeric input).

Queries are normalised through :meth:`~repro.ci.base.CIQuery.make` *before*
dispatch, so validation order (overlap, unknown column, sample count)
matches the :class:`~repro.ci.base.CITester` base class and bad input
raises :class:`~repro.exceptions.CITestError` rather than leaking backend
internals (a raw ``KeyError`` from the schema lookup, historically).
"""

from __future__ import annotations

from repro.ci.base import CIQuery, CIResult, CITester, as_queries
from repro.ci.gtest import GTestCI
from repro.ci.rcit import RCIT
from repro.data.table import Table
from repro.rng import SeedLike


class AdaptiveCI(CITester):
    """Dispatch to a discrete or kernel test by the queried columns' kinds.

    Both sub-batches go through their backend's *fused* batch path: the
    discrete backend fuses same-``(Y, Z)`` queries into counting passes,
    and the continuous backend (RCIT) shares each group's standardized
    blocks, bandwidths, Z feature map, ridge factorisation, and Y
    residuals (see :mod:`repro.ci.rcit`).  Sharding is the ledger's job:
    its executor splits the whole mixed batch, which never changes
    results, because every random draw is derived per variable block.
    """

    method = "adaptive"

    def __init__(self, alpha: float = 0.01, seed: SeedLike = None,
                 discrete: CITester | None = None,
                 continuous: CITester | None = None) -> None:
        super().__init__(alpha=alpha)
        self.discrete = discrete or GTestCI(alpha=alpha)
        self.continuous = continuous or RCIT(alpha=alpha, seed=seed)

    def cache_token(self) -> tuple:
        return (("discrete", self.discrete.method, self.discrete.alpha)
                + self.discrete.cache_token(),
                ("continuous", self.continuous.method, self.continuous.alpha)
                + self.continuous.cache_token())

    def _backend_for(self, table: Table, query: CIQuery) -> CITester:
        all_discrete = all(
            table.schema.spec(name).kind.is_discrete
            for name in query.x + query.y + query.z
        )
        return self.discrete if all_discrete else self.continuous

    @staticmethod
    def _relabel(result: CIResult) -> CIResult:
        return CIResult(result.independent, result.p_value, result.statistic,
                        result.query, method=f"adaptive->{result.method}")

    def test_batch(self, table: Table, queries) -> list[CIResult]:
        """Batch per backend, preserving the relative order within each.

        Discrete queries go to the discrete backend's batch path in one
        call (sharing its code caches); the rest go to the continuous
        backend likewise.  A lone :meth:`test` is a one-query batch routed
        the same way, so per-query results are partition-invariant.
        """
        normalised = as_queries(queries)
        for query in normalised:
            self._check_query(table, query)
        by_backend: dict[int, tuple[CITester, list[int]]] = {}
        for i, query in enumerate(normalised):
            backend = self._backend_for(table, query)
            by_backend.setdefault(id(backend), (backend, []))[1].append(i)
        results: list[CIResult | None] = [None] * len(normalised)
        for backend, indices in by_backend.values():
            batch = backend.test_batch(table,
                                       [normalised[i] for i in indices])
            for i, result in zip(indices, batch):
                results[i] = self._relabel(result)
        return results
