"""Fisher-z partial-correlation CI test for (approximately) Gaussian data.

For sets X, Y the test uses the *maximum* absolute partial correlation over
pairs (x, y) with a Bonferroni-style union bound, which preserves the group
semantics: the group is independent of Y given Z iff every member is, under
composition/decomposition (faithfulness).

The group kernel (``FisherZCI._group_eval``) fuses a same-``(Y, Z)``
burst of a :meth:`~repro.ci.base.CITester.test_batch`: the ``[1, Z]``
design is factored (QR) **once per group**, the Y columns are residualised
once, and every same-cardinality candidate block is residualised through
one stacked 3-D matmul against the shared orthonormal basis (numpy runs a
3-D matmul as one GEMM per slice, so each slice is bitwise identical to
the 2-D product a lone query computes).  A lone
:meth:`~repro.ci.base.CITester.test` is a group of one, so fused results
are bitwise identical to sequential evaluation.  Rank-deficient designs
(a constant Z column, say) fall back to the per-query stacked ``lstsq``
of the matrix path, whose SVD cutoff handles the degeneracy.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro.ci.base import CITester
from repro.data.table import Table
from repro.exceptions import CITestError


def partial_correlation(x: np.ndarray, y: np.ndarray,
                        z: np.ndarray | None) -> float:
    """Sample partial correlation of two 1-D arrays given conditioning matrix."""
    if z is None or z.shape[1] == 0:
        xc = x - x.mean()
        yc = y - y.mean()
    else:
        design = np.column_stack([np.ones(z.shape[0]), z])
        coef_x, *_ = np.linalg.lstsq(design, x, rcond=None)
        coef_y, *_ = np.linalg.lstsq(design, y, rcond=None)
        xc = x - design @ coef_x
        yc = y - design @ coef_y
    denom = np.sqrt((xc @ xc) * (yc @ yc))
    if denom <= 1e-12:
        return 0.0
    return float(np.clip((xc @ yc) / denom, -0.999999, 0.999999))


class FisherZCI(CITester):
    """Partial-correlation test with Fisher's z transform.

    The null distribution of ``z = atanh(r) * sqrt(n - |Z| - 3)`` is
    standard normal.  For set-valued X/Y the p-value is the Bonferroni
    adjusted minimum over member pairs.

    The Z design is factored *once per (Y, Z) group*: residuals come from
    the projector of an orthonormal basis of ``[1, Z]``, every pairwise
    partial correlation then from one cross-product matrix of the
    residuals — the pre-engine implementation re-solved the identical
    design ``|X| * |Y|`` times per query, and re-factored it per query
    within a burst.
    """

    method = "fisher-z"

    def cache_token(self) -> tuple:
        # Version of the residualisation numerics: v2 is the QR-basis
        # projector (bit-different from v1's per-query stacked lstsq), so
        # persistent stores written by the old scheme must read as misses
        # rather than mixing two numeric schemes in one run.
        return (("derivation", 2),)

    # -- kernels ------------------------------------------------------------

    def _dof(self, n: int, n_conditioning: int) -> int:
        dof = n - n_conditioning - 3
        if dof <= 0:
            raise CITestError(
                f"need n > |Z| + 3 samples for Fisher-z (n={n}, "
                f"|Z|={n_conditioning})"
            )
        return dof

    @staticmethod
    def _design_basis(design: np.ndarray) -> np.ndarray | None:
        """Orthonormal basis of a full-rank design, else ``None``.

        With full column rank, ``I - Q Q^T`` is exactly the lstsq residual
        projector; a (near-)rank-deficient design has no such basis — the
        caller falls back to per-query ``lstsq``, whose SVD cutoff treats
        the degenerate directions consistently.
        """
        q, r = np.linalg.qr(design)
        diag = np.abs(np.diag(r))
        if diag.min() <= design.shape[0] * np.finfo(float).eps * \
                max(float(diag.max()), 1.0):
            return None
        return q

    def _group_eval(self, table: Table, y_names: tuple[str, ...],
                    z_names: tuple[str, ...],
                    x_blocks: list[tuple[str, ...]]
                    ) -> list[tuple[float, float]]:
        """``(p_value, statistic)`` per candidate sharing one (Y, Z) leg."""
        self._check_finite(table, y_names, z_names, x_blocks)
        n = table.n_rows
        dof = self._dof(n, len(z_names))
        y = table.matrix(y_names)
        basis = None
        if z_names:
            design = np.column_stack([np.ones(n), table.matrix(z_names)])
            basis = self._design_basis(design)
            if basis is None:
                # Degenerate design: per-query legacy solve (no sharing).
                return [self._lstsq_eval(table.matrix(names), y, design, dof)
                        for names in x_blocks]
            y_res = y - basis @ (basis.T @ y)
        else:
            y_res = y - y.mean(axis=0, keepdims=True)

        out: list[tuple[float, float] | None] = [None] * len(x_blocks)
        by_cardinality: dict[int, list[int]] = {}
        for j, names in enumerate(x_blocks):
            by_cardinality.setdefault(len(names), []).append(j)
        for members in by_cardinality.values():
            stacked = np.stack([table.matrix(x_blocks[j]) for j in members])
            if basis is not None:
                residuals = stacked - np.matmul(
                    basis, np.matmul(basis.T, stacked))
            else:
                residuals = stacked - stacked.mean(axis=1, keepdims=True)
            for slot, j in enumerate(members):
                out[j] = self._pair_stats(residuals[slot], y_res, dof)
        return out

    def _lstsq_eval(self, x: np.ndarray, y: np.ndarray, design: np.ndarray,
                    dof: int) -> tuple[float, float]:
        """Legacy stacked-lstsq residualisation for one query."""
        stacked = np.column_stack([x, y])
        coef, *_ = np.linalg.lstsq(design, stacked, rcond=None)
        residuals = stacked - design @ coef
        return self._pair_stats(residuals[:, :x.shape[1]],
                                residuals[:, x.shape[1]:], dof)

    def _pair_stats(self, x_res: np.ndarray, y_res: np.ndarray,
                    dof: int) -> tuple[float, float]:
        """Bonferroni-adjusted max-|z| over all residual column pairs."""
        cross = x_res.T @ y_res
        norm_x = np.einsum("ij,ij->j", x_res, x_res)
        norm_y = np.einsum("ij,ij->j", y_res, y_res)
        denom = np.sqrt(np.outer(norm_x, norm_y))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(denom > 1e-12,
                         np.clip(cross / denom, -0.999999, 0.999999), 0.0)
        statistics = np.abs(np.arctanh(r)) * np.sqrt(dof)
        best = statistics.argmax()  # largest |z| <=> smallest p
        best_stat = float(statistics.ravel()[best])
        best_p = float(2.0 * special.ndtr(-best_stat))
        n_pairs = x_res.shape[1] * y_res.shape[1]
        return min(1.0, best_p * n_pairs), best_stat

    def _test(self, x: np.ndarray, y: np.ndarray,
              z: np.ndarray | None) -> tuple[float, float]:
        """Matrix-level path (no table context): one stacked lstsq."""
        n = x.shape[0]
        dof = self._dof(n, 0 if z is None else z.shape[1])
        if z is None or z.shape[1] == 0:
            x_res = x - x.mean(axis=0, keepdims=True)
            y_res = y - y.mean(axis=0, keepdims=True)
            return self._pair_stats(x_res, y_res, dof)
        return self._lstsq_eval(x, y, np.column_stack([np.ones(n), z]), dof)
