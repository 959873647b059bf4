"""Discrete conditional-independence tests (G-test / chi-squared).

For discrete X, Y, Z the G-statistic

    G = 2 * sum_{x,y,z} N(x,y,z) * log( N(x,y,z) N(z) / (N(x,z) N(y,z)) )

is asymptotically chi-squared with ``sum_z (|X|_z - 1)(|Y|_z - 1)`` degrees
of freedom.  Multi-column X (group testing!) is handled by encoding the
joint of the columns as a single variable, which is exactly the set-valued
CI semantics the graphoid axioms reason about.

The kernels are fully vectorised: (x, y, z) level codes are fused into one
flat index and *all* strata are counted in a single :func:`numpy.bincount`
pass over an ``(n_z, n_x, n_y)`` tensor — there is no Python loop over
strata.  Queries against a :class:`~repro.data.table.Table` additionally
reuse its :meth:`~repro.data.table.Table.discrete_codes` cache, so a batch
of queries sharing a conditioning set encodes the stratification once.

Multi-query fusion: the group kernel (``GTestCI._group_eval``) serves
the dominant selection workload (a phase-2 burst where *every* candidate
shares one ``(Y, Z)`` pair) — :meth:`~repro.ci.base.CITester.test_batch`
groups a batch by its ``(y, z)`` name pair, the ``(Z, Y)`` part of the
flat index is built once for the group, and each candidate is counted
by one :func:`numpy.bincount` of its own flat index into its row of a
stacked ``(k, n_z * n_x * n_y)`` counts array; p-values for the group
come from one vectorised :func:`_chi2_sf` call.  Each row is exactly
the tensor :func:`fused_counts` builds for that query, and a lone
:meth:`~repro.ci.base.CITester.test` is a group of one, so fused results
are bitwise identical to sequential calls.  The flat indices go through
one reused ``n_rows`` buffer, so the only memory that grows with the
stack is the count tensor: a group whose stacked tensor would exceed
:data:`MAX_DENSE_CELLS` is counted in several stacks under the budget,
and a query that is over budget on its own falls back to a per-stratum
loop.  The table-free matrix path (:meth:`GTestCI._test`, via
:func:`fused_counts`) is the reference the group kernel is checked
against.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro.ci.base import CITester, encode_rows
from repro.data.table import Table
from repro.exceptions import CITestError


def _dense_codes(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense integer codes (and level count) of a rounded discrete matrix."""
    codes = encode_rows(np.round(matrix).astype(np.int64))
    n_levels = int(codes.max()) + 1 if codes.size else 0
    return codes, n_levels


def _chi2_sf(statistic, dof):
    """Chi-squared upper tail: ``scipy.stats.chi2.sf(statistic, dof)``,
    bit for bit, through ``scipy.special`` (importing ``scipy.stats``
    costs more than a small run).

    A G statistic that rounds to just below zero is clamped: the
    distribution's tail there is 1, while ``chdtrc`` returns NaN.
    """
    return special.chdtrc(dof, np.maximum(statistic, 0.0))


def fused_counts(x_codes: np.ndarray, n_x: int, y_codes: np.ndarray, n_y: int,
                 z_codes: np.ndarray, n_z: int) -> np.ndarray:
    """Count tensor ``N[z, x, y]`` from one fused bincount pass."""
    flat = (z_codes * n_x + x_codes) * n_y + y_codes
    counts = np.bincount(flat, minlength=n_z * n_x * n_y)
    return counts.reshape(n_z, n_x, n_y).astype(np.float64)


# Cell budget for the dense (n_z, n_x, n_y) tensor.  High-cardinality group
# queries (GrpSel can test dozens of features jointly) would otherwise
# allocate gigabytes; past the budget we fall back to a per-stratum loop
# with the seed implementation's O(levels-per-stratum) memory profile.
MAX_DENSE_CELLS = 2_000_000


class GTestCI(CITester):
    """Likelihood-ratio G-test for discrete data.

    ``min_expected`` guards the asymptotic approximation: strata whose
    minimum *expected* cell count (over the levels present in the stratum)
    falls below it contribute no degrees of freedom rather than a
    misleading statistic.
    """

    method = "g-test"

    def __init__(self, alpha: float = 0.01, *,
                 min_expected: float = 0.0) -> None:
        # Keyword-only, so an old positional call that meant a raw
        # stratum-size guard fails instead of being read as min_expected.
        super().__init__(alpha=alpha)
        if min_expected < 0:
            raise CITestError(f"min_expected must be >= 0, got {min_expected}")
        self.min_expected = float(min_expected)

    def cache_token(self) -> tuple:
        return (("min_expected", self.min_expected),)

    # -- kernels ------------------------------------------------------------

    def _group_eval(self, table: Table, y_names: tuple[str, ...],
                    z_names: tuple[str, ...],
                    x_blocks: list[tuple[str, ...]]
                    ) -> list[tuple[float, float]]:
        """``(p_value, statistic)`` per X block sharing one (Y, Z) pair.

        Candidates of equal X cardinality are stacked: each candidate's
        flat index ``(z * n_x + x) * n_y + y`` is written into one
        ``n_rows`` buffer reused across the call and counted by its own
        :func:`numpy.bincount` into that candidate's row of a
        ``(k, n_z * n_x * n_y)`` counts array.  The per-stratum statistic
        terms are then computed over one ``(k * n_z, n_x, n_y)`` tensor
        whose strata blocks are exactly the arrays :func:`fused_counts`
        builds for one query — so every reduction runs over the same
        elements in the same order and results are bitwise identical to
        per-query evaluation, a group of one (``k = 1``) included.  All
        p-values for the group come from one vectorised :func:`_chi2_sf`
        call.

        Stacks whose count tensor would exceed :data:`MAX_DENSE_CELLS`
        are split into smaller stacks under the budget; a query that is
        over the budget on its own falls back to the per-stratum kernel,
        exactly as the matrix path :meth:`_test` does.
        """
        y_codes, n_y = table.discrete_codes(y_names)
        z_codes, n_z = table.discrete_codes(z_names)
        xs = [table.discrete_codes(names) for names in x_blocks]
        n_queries = len(x_blocks)
        statistics = np.zeros(n_queries)
        dofs = np.zeros(n_queries, dtype=np.int64)

        by_cardinality: dict[int, list[int]] = {}
        for j, (x_codes, n_x) in enumerate(xs):
            if n_z * n_x * n_y <= MAX_DENSE_CELLS:
                by_cardinality.setdefault(n_x, []).append(j)
            else:
                statistics[j], dofs[j] = self._stat_dof_stratified(
                    x_codes, y_codes, z_codes, n_z)

        # Reused by every candidate, so it stays hot in cache.
        flat = np.empty(y_codes.shape[0], dtype=np.int64)
        for n_x, members in by_cardinality.items():
            block = n_z * n_x * n_y
            per_stack = max(1, MAX_DENSE_CELLS // block)
            base = z_codes * (n_x * n_y) + y_codes
            for start in range(0, len(members), per_stack):
                stack = members[start:start + per_stack]
                # Counts are integers below 2**53: the float rows hold
                # them exactly, as fused_counts' astype does.
                counts = np.empty((len(stack), block))
                for row, j in enumerate(stack):
                    np.multiply(xs[j][0], n_y, out=flat)
                    flat += base
                    counts[row] = np.bincount(flat, minlength=block)
                stat_z, dof_z = self._stratum_terms(
                    counts.reshape(len(stack) * n_z, n_x, n_y))
                statistics[stack] = stat_z.reshape(len(stack), n_z).sum(axis=1)
                dofs[stack] = dof_z.reshape(len(stack), n_z).sum(axis=1)

        p_values = np.ones(n_queries)
        live = dofs > 0
        if live.any():
            p_values[live] = _chi2_sf(statistics[live], dofs[live])
        # Degenerate strata everywhere (dof == 0): no evidence against
        # independence, same convention as the sequential path.
        return [(1.0, 0.0) if dofs[j] == 0
                else (float(p_values[j]), float(statistics[j]))
                for j in range(n_queries)]

    def _test(self, x: np.ndarray, y: np.ndarray,
              z: np.ndarray | None) -> tuple[float, float]:
        """Matrix-based path (same kernel, for table-free callers)."""
        x_codes, n_x = _dense_codes(x)
        y_codes, n_y = _dense_codes(y)
        if z is not None:
            z_codes, n_z = _dense_codes(z)
        else:
            z_codes, n_z = np.zeros_like(x_codes), 1
        return self._from_codes(x_codes, n_x, y_codes, n_y, z_codes, n_z)

    def _from_codes(self, x_codes: np.ndarray, n_x: int, y_codes: np.ndarray,
                    n_y: int, z_codes: np.ndarray, n_z: int
                    ) -> tuple[float, float]:
        if n_z * n_x * n_y <= MAX_DENSE_CELLS:
            statistic, dof = self._stat_dof(
                fused_counts(x_codes, n_x, y_codes, n_y, z_codes, n_z))
        else:
            statistic, dof = self._stat_dof_stratified(x_codes, y_codes,
                                                       z_codes, n_z)
        if dof == 0:
            # Degenerate strata everywhere: no evidence against independence.
            return 1.0, 0.0
        return float(_chi2_sf(statistic, dof)), statistic

    def _stat_dof(self, counts: np.ndarray) -> tuple[float, int]:
        """``(statistic, dof)`` from an ``(n_z, n_x, n_y)`` count tensor."""
        stat_z, dof_z = self._stratum_terms(counts)
        return float(stat_z.sum()), int(dof_z.sum())

    def _stratum_terms(self, counts: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Per-stratum ``(statistic, dof)`` contribution arrays.

        Invalid strata (degenerate levels, or failing the
        ``min_expected`` guard) contribute exactly 0.0 / 0, so callers
        can reduce over any grouping of the strata axis — including the
        fused multi-query layout where several queries' strata share one
        axis — without changing the per-query result.
        """
        n_xz = counts.sum(axis=2)
        n_yz = counts.sum(axis=1)
        n_z = n_xz.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = n_xz[:, :, None] * n_yz[:, None, :] / n_z[:, None, None]
            cell_terms = self._cell_terms(counts, expected)
        stat_z = cell_terms.sum(axis=(1, 2))
        levels_x = (n_xz > 0).sum(axis=1)
        levels_y = (n_yz > 0).sum(axis=1)
        valid = (levels_x > 1) & (levels_y > 1)
        if self.min_expected > 0.0:
            # Expected counts restricted to the levels present per stratum.
            support = (n_xz[:, :, None] > 0) & (n_yz[:, None, :] > 0)
            min_exp = np.where(support, expected, np.inf).min(axis=(1, 2))
            valid &= min_exp >= self.min_expected
        dof_z = np.where(valid, (levels_x - 1) * (levels_y - 1), 0)
        return np.where(valid, stat_z, 0.0), dof_z

    def _stat_dof_stratified(self, x_codes: np.ndarray, y_codes: np.ndarray,
                             z_codes: np.ndarray, n_z: int
                             ) -> tuple[float, int]:
        """Per-stratum accumulation: one small contingency table at a time."""
        order = np.argsort(z_codes, kind="stable")
        bounds = np.searchsorted(z_codes[order], np.arange(n_z + 1))
        statistic = 0.0
        dof = 0
        for stratum in range(n_z):
            rows = order[bounds[stratum]:bounds[stratum + 1]]
            if rows.size == 0:
                continue
            _, x_idx = np.unique(x_codes[rows], return_inverse=True)
            _, y_idx = np.unique(y_codes[rows], return_inverse=True)
            counts = np.zeros((1, int(x_idx.max()) + 1, int(y_idx.max()) + 1))
            np.add.at(counts[0], (x_idx, y_idx), 1)
            stat_s, dof_s = self._stat_dof(counts)
            statistic += stat_s
            dof += dof_s
        return statistic, dof

    def _cell_terms(self, counts: np.ndarray,
                    expected: np.ndarray) -> np.ndarray:
        return np.where(counts > 0,
                        2.0 * counts * np.log(counts / expected), 0.0)


class ChiSquaredCI(GTestCI):
    """Pearson chi-squared variant of :class:`GTestCI`."""

    method = "chi2"

    def _cell_terms(self, counts: np.ndarray,
                    expected: np.ndarray) -> np.ndarray:
        return np.where(expected > 0, (counts - expected) ** 2 / expected, 0.0)
