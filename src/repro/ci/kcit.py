"""KCIT: the exact Kernel Conditional Independence Test (Zhang et al., 2011).

RCIT (see :mod:`repro.ci.rcit`) is a random-feature approximation of this
test; we provide the exact version as a slow-but-gold-standard reference
for cross-checks and ablations.  Construction:

1. centred RBF Gram matrices ``K_X'' (with X' = [X, Z]), ``K_Y``, ``K_Z``,
2. kernel ridge regression residualisation:
   ``R = eps * (K_Z + eps I)^{-1}`` and the conditional Grams
   ``K_{X|Z} = R K_X' R``, ``K_{Y|Z} = R K_Y R``,
3. statistic ``T = trace(K_{X|Z} K_{Y|Z}) / n``,
4. null approximated by a gamma distribution matched to the mean/variance
   implied by the eigenvalues of the conditional Grams.

Cost is O(n^3); keep n in the hundreds.

The group kernel (``KCIT._group_eval``) shares the O(n^3) work across a
same-``(Y, Z)`` group of a :meth:`~repro.ci.base.CITester.test_batch`:
the subsample draw, the centred ``K_Z``, its ridge inverse ``R``, and the
conditional ``K_{Y|Z}`` are computed once per group and reused by every
candidate — each candidate then only pays its own ``K_{X'|Z}`` chain.
Every group draws the same subsample (the seed is a value), and a lone
:meth:`~repro.ci.base.CITester.test` is a group of one, so fused results
are bitwise identical.  All traces are evaluated as elementwise sums
(``trace(A @ B) == sum(A * B.T)``) and centring is the O(n^2)
row/column-mean subtraction — never a full matmul.
"""

from __future__ import annotations

import numpy as np

from repro.ci.base import CITester
from repro.ci.rcit import _gamma_sf, _standardize, median_bandwidth
from repro.data.table import Table
from repro.exceptions import CITestError
from repro.rng import SeedLike, as_generator, value_seed


def rbf_gram(matrix: np.ndarray, bandwidth: float) -> np.ndarray:
    """RBF kernel Gram matrix with the given bandwidth."""
    sq = np.sum(matrix ** 2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * matrix @ matrix.T, 0.0)
    return np.exp(-d2 / (2.0 * bandwidth ** 2))


def _center(gram: np.ndarray) -> np.ndarray:
    """Doubly-centre a Gram matrix: ``H G H`` with ``H = I - 11^T/n``.

    Evaluated as row/column mean subtraction — O(n^2), versus the two
    O(n^3) matmuls of the literal formula.
    """
    row = gram.mean(axis=0, keepdims=True)
    col = gram.mean(axis=1, keepdims=True)
    return gram - row - col + gram.mean()


class KCIT(CITester):
    """Exact kernel conditional independence test.

    ``max_samples`` subsamples large inputs to keep the O(n^3) eigensolves
    tractable; ``ridge`` is the kernel-ridge regularisation (the paper's
    epsilon), which must be positive.  The subsample draw is seeded by
    ``seed``, fixed to one int at construction
    (:func:`repro.rng.value_seed`).
    """

    method = "kcit"

    def __init__(self, alpha: float = 0.01, ridge: float = 1e-3,
                 max_samples: int = 500, seed: SeedLike = 0) -> None:
        super().__init__(alpha=alpha)
        if max_samples < 10:
            raise CITestError("max_samples must be at least 10")
        if not ridge > 0:
            raise CITestError(f"ridge must be positive, got {ridge!r}")
        self.ridge = ridge
        self.max_samples = max_samples
        self._seed = value_seed(seed)

    def cache_token(self) -> tuple:
        # The derivation version tracks the kernel numerics: v2 (O(n^2)
        # centring, elementwise traces) is bit-different from v1's
        # H@G@H / trace(A@B), so old persistent-store entries must read
        # as misses.
        return (("seed", self._seed), ("ridge", self.ridge),
                ("max_samples", self.max_samples), ("derivation", 2))

    # -- kernels ------------------------------------------------------------

    def _block(self, table: Table, names: tuple[str, ...],
               idx: np.ndarray | None) -> np.ndarray:
        """Standardized block, through the table cache when unsubsampled."""
        if idx is None:
            return table.standardized_block(names)
        return _standardize(table.matrix(names)[idx])

    def _group_eval(self, table: Table, y_names: tuple[str, ...],
                    z_names: tuple[str, ...],
                    x_blocks: list[tuple[str, ...]]
                    ) -> list[tuple[float, float]]:
        """``(p_value, statistic)`` per candidate sharing one (Y, Z) leg."""
        self._check_finite(table, y_names, z_names, x_blocks)
        n = table.n_rows
        idx = None
        if n > self.max_samples:
            rng = as_generator(self._seed)
            idx = rng.choice(n, size=self.max_samples, replace=False)
            n = self.max_samples

        ys = self._block(table, y_names, idx)
        zs = self._block(table, z_names, idx) if z_names else None
        if idx is None:
            bw_y = table.median_bandwidth(y_names)
            bw_z = table.median_bandwidth(z_names) if z_names else None
        else:
            bw_y = median_bandwidth(ys)
            bw_z = median_bandwidth(zs) if z_names else None

        k_y = _center(rbf_gram(ys, bw_y))
        residual = None
        if zs is not None:
            k_z = _center(rbf_gram(zs, bw_z))
            # Absolute ridge (Zhang et al. use 1e-3): scaling it with n
            # under-regresses and leaks Z-dependence into the residuals.
            eps = self.ridge
            residual = eps * np.linalg.inv(k_z + eps * np.eye(n))
            k_y = residual @ k_y @ residual
        trace_y = float(np.trace(k_y))
        # trace(Ky^2) as an elementwise sum; Ky is (numerically) symmetric
        # but we keep the transpose so the identity holds exactly.
        sq_y = float(np.sum(k_y * k_y.T))

        out: list[tuple[float, float]] = []
        for names in x_blocks:
            xs = self._block(table, names, idx)
            # KCIT conditions X on Z by augmenting X with Z.
            x_aug = np.hstack([xs, 0.5 * zs]) if zs is not None else xs
            k_x = _center(rbf_gram(x_aug, median_bandwidth(x_aug)))
            if residual is not None:
                k_x = residual @ k_x @ residual

            statistic = float(np.sum(k_x * k_y.T))  # trace(Kx @ Ky)

            # Gamma approximation with Zhang et al.'s moment matching:
            #   E[T]   ~= tr(Kx) tr(Ky) / n
            #   Var[T] ~= 2 tr(Kx^2) tr(Ky^2) / n^2
            mean = float(np.trace(k_x)) * trace_y / n
            var = 2.0 * float(np.sum(k_x * k_x.T)) * sq_y / n ** 2
            if mean <= 0 or var <= 0:
                out.append((1.0, statistic))
                continue
            out.append((_gamma_sf(statistic, mean ** 2 / var, var / mean),
                        statistic))
        return out
