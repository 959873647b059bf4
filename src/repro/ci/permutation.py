"""Permutation-based conditional independence test.

A nonparametric fallback: shuffle X *within strata of Z* (local permutation)
to simulate the null ``X ⊥ Y | Z`` and compare a dependence statistic
(sum of squared cross-correlations) against the permutation distribution.
Continuous Z is stratified by quantile binning.  Slower than RCIT but makes
no distributional assumptions — useful as a cross-check in tests.
"""

from __future__ import annotations

import numpy as np

from repro.ci.base import CITester, encode_rows
from repro.exceptions import CITestError
from repro.rng import SeedLike, as_generator, value_seed


def _cross_correlation_stat(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of squared Pearson correlations over column pairs."""
    xc = x - x.mean(axis=0, keepdims=True)
    yc = y - y.mean(axis=0, keepdims=True)
    x_std = xc.std(axis=0, keepdims=True)
    y_std = yc.std(axis=0, keepdims=True)
    x_std[x_std < 1e-12] = 1.0
    y_std[y_std < 1e-12] = 1.0
    corr = (xc / x_std).T @ (yc / y_std) / x.shape[0]
    return float(np.sum(corr ** 2))


def _stratify(z: np.ndarray, n_bins: int) -> np.ndarray:
    """Map each row of Z to a stratum code, quantile-binning continuous cols."""
    binned = np.empty_like(z)
    for j in range(z.shape[1]):
        col = z[:, j]
        uniq = np.unique(col)
        if uniq.size <= n_bins:
            binned[:, j] = np.searchsorted(uniq, col)
        else:
            edges = np.quantile(col, np.linspace(0, 1, n_bins + 1)[1:-1])
            binned[:, j] = np.searchsorted(edges, col)
    return encode_rows(binned.astype(np.int64))


class PermutationCI(CITester):
    """Local-permutation CI test.

    ``n_permutations`` controls resolution: the smallest achievable p-value
    is ``1 / (n_permutations + 1)``, so choose it larger than ``1/alpha``.
    Every query shuffles from a fresh generator on ``seed``, which is fixed
    to one int at construction (:func:`repro.rng.value_seed`).
    """

    method = "permutation"

    def __init__(self, alpha: float = 0.01, n_permutations: int = 200,
                 n_bins: int = 4, seed: SeedLike = None) -> None:
        super().__init__(alpha=alpha)
        if n_permutations < 20:
            raise CITestError("n_permutations must be at least 20")
        if (1.0 / (n_permutations + 1)) > alpha:
            raise CITestError(
                f"{n_permutations} permutations cannot resolve alpha={alpha}"
            )
        self.n_permutations = n_permutations
        self.n_bins = n_bins
        self._seed = value_seed(seed)

    def cache_token(self) -> tuple:
        return (("seed", self._seed),
                ("n_permutations", self.n_permutations),
                ("n_bins", self.n_bins))

    def _test(self, x: np.ndarray, y: np.ndarray,
              z: np.ndarray | None) -> tuple[float, float]:
        rng = as_generator(self._seed)
        observed = _cross_correlation_stat(x, y)
        if z is None or z.shape[1] == 0:
            strata = np.zeros(x.shape[0], dtype=np.int64)
        else:
            strata = _stratify(z, self.n_bins)
        stratum_indices = [np.flatnonzero(strata == s) for s in np.unique(strata)]

        exceed = 0
        for _ in range(self.n_permutations):
            x_perm = x.copy()
            for idx in stratum_indices:
                if idx.size > 1:
                    x_perm[idx] = x[rng.permutation(idx)]
            if _cross_correlation_stat(x_perm, y) >= observed:
                exceed += 1
        p_value = (exceed + 1) / (self.n_permutations + 1)
        return p_value, observed
