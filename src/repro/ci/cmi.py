"""Conditional mutual information over discrete columns.

Table 2 of the paper reports ``CMI(S, Y' | A)`` and ``CMI(S, Y | A)`` using
the CCMI estimator of Mukherjee et al. (2019) and truncates slightly
negative estimates to zero.  S, Y, Y' and the encoded A strata are all
discrete, so :func:`discrete_cmi` computes the exact quantity: a plug-in
estimate from the empirical joint frequencies.
"""

from __future__ import annotations

import numpy as np

from repro.ci.gtest import MAX_DENSE_CELLS, fused_counts
from repro.data.table import Table
from repro.exceptions import CITestError


def discrete_cmi(table: Table, x: list[str] | str, y: list[str] | str,
                 z: list[str] | str = (), truncate: bool = True) -> float:
    """Plug-in CMI ``I(X; Y | Z)`` in nats over discrete columns.

    Runs on the CI engine's fused-bincount kernel: the joint and marginal
    counts come from one :func:`~repro.ci.gtest.fused_counts` pass over
    the table's cached integer codes (this is the Table 2 hot path — the
    old row-by-row Python dict loop was the single slowest step of the
    CMI columns).  Joint supports larger than
    :data:`~repro.ci.gtest.MAX_DENSE_CELLS` use a sparse unique-based
    pass with memory proportional to the observed support instead.

    ``truncate`` clips tiny negative values (possible only through floating
    error here), matching the paper's footnote 3.
    """
    xs = [x] if isinstance(x, str) else list(x)
    ys = [y] if isinstance(y, str) else list(y)
    zs = [z] if isinstance(z, str) else list(z)
    if not xs or not ys:
        raise CITestError("X and Y must be non-empty for CMI")
    n = table.n_rows
    if n == 0:
        return 0.0
    cx, n_x = table.discrete_codes(tuple(xs))
    cy, n_y = table.discrete_codes(tuple(ys))
    cz, n_z = table.discrete_codes(tuple(zs))

    if n_z * n_x * n_y <= MAX_DENSE_CELLS:
        counts = fused_counts(cx, n_x, cy, n_y, cz, n_z)
        n_xz = counts.sum(axis=2)
        n_yz = counts.sum(axis=1)
        n_zc = counts.sum(axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (counts * n_zc[:, None, None]
                     / (n_xz[:, :, None] * n_yz[:, None, :]))
            terms = np.where(counts > 0, counts * np.log(ratio), 0.0)
        cmi = float(terms.sum()) / n
    else:
        cmi = _sparse_cmi(cx, n_x, cy, n_y, cz, n)
    if truncate:
        cmi = max(cmi, 0.0)
    return float(cmi)


def _sparse_cmi(cx: np.ndarray, n_x: int, cy: np.ndarray, n_y: int,
                cz: np.ndarray, n: int) -> float:
    """Support-proportional CMI for joints past the dense cell budget."""
    flat = (cz * n_x + cx) * n_y + cy
    cells, joint = np.unique(flat, return_counts=True)
    z_of = cells // (n_x * n_y)
    x_of = cells % (n_x * n_y) // n_y
    y_of = cells % n_y

    def group_sum(keys: np.ndarray) -> np.ndarray:
        """Per-cell total of ``joint`` over cells sharing a key."""
        _, inverse = np.unique(keys, return_inverse=True)
        totals = np.bincount(inverse, weights=joint)
        return totals[inverse]

    n_xz = group_sum(z_of * n_x + x_of)
    n_yz = group_sum(z_of * n_y + y_of)
    n_zc = group_sum(z_of)
    terms = joint * np.log(joint * n_zc / (n_xz * n_yz))
    return float(terms.sum()) / n
