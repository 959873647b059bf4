"""RCIT: Randomized Conditional Independence Test (Strobl et al., 2019).

The paper runs all its CI tests with the R ``RCIT`` package; this module is
a from-scratch Python port of the same construction:

1. map X, Y, Z through **random Fourier features** (RFF) approximating an
   RBF kernel with median-heuristic bandwidths,
2. residualise the X- and Y-features on the Z-features (ridge regression) —
   the conditional version, called RCoT/RCIT,
3. the statistic is ``n`` times the squared Frobenius norm of the empirical
   cross-covariance of the residuals,
4. the null is a weighted sum of chi-squared(1) variables whose weights are
   products of the residual covariance eigenvalues; we use the
   Satterthwaite–Welch gamma approximation (RCIT's ``approx="gamma"``).

With an empty Z this degrades to RIT, the unconditional randomized
independence test.

Fused batch engine
------------------

RCIT's group kernel (``RCIT._group_eval``) mirrors the discrete engine's
same-``(Y, Z)`` fusion: :meth:`~repro.ci.base.CITester.test_batch` groups
queries by their ``(y, z)`` name pair — the exact shape of a
SeqSel/GrpSel phase-2 burst; :class:`RIT` groups by ``(y, ())`` because
it drops Z — and each group computes its expensive shared legs **once**:
the standardized blocks and median bandwidths (cached on the
:class:`~repro.data.table.Table`), the Z feature map ``fz``, its ridge Gram
Cholesky factorisation, and the residualised Y features.  Under a
:class:`~repro.ci.base.CITestLedger` the conditioned leg (``fz``, the
ridge projector, the Y residuals and their eigenvalues) is built once per
ledger *run*, not once per group: the ledger's one-entry
:class:`~repro.ci.base.LegSlot` holds the last one, keyed on the tester's
``method`` and ``cache_token()``, the table fingerprint, Y and Z, so
GrpSel's level-by-level batches under one conditioning set reuse it.
Raw tester calls and pool workers see no slot and build their own, and
an unconditioned leg is never held.  Same-cardinality
candidate X blocks are then mapped through one stacked RFF tensor and
residualised in batched matmuls (numpy evaluates a 3-D matmul as one GEMM
per slice, so slice ``j`` is bitwise identical to the 2-D product a lone
query computes); the per-query eigen/gamma p-values come from the small
per-candidate covariances.

**Derivation rule** (the reason fusion is exact): the seed is fixed to an
int at construction (:func:`repro.rng.value_seed`), and every variable
block consumes a generator derived from
``(seed, purpose, fingerprint_of(block names))`` via
:func:`repro.rng.derive` — never a stream shared across blocks or
queries.  A lone :meth:`~repro.ci.base.CITester.test` is a group of
one, so fused results are bitwise identical to sequential evaluation
and invariant under any executor's shard boundaries.

The group kernels run their full-size elementwise tails in place (the RFF
phase shift, cosine and scaling; the centring; the residualisation on Z):
the same operations in the same order as the out-of-place expressions, so
the same bits, with one full-size buffer per feature map instead of four.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import special
from scipy.linalg import cho_factor, cho_solve

from repro.ci.base import CIQuery, CITester, running_leg_slot
from repro.data.table import Table, standardize_matrix
from repro.exceptions import CITestError
from repro.rng import SeedLike, as_generator, derive, derived_seed, value_seed

# Canonical home is repro.data.table (the Table block cache shares it);
# kept under the historical name for the kernel-side importers (KCIT).
_standardize = standardize_matrix


#: Subsample sizes up to this many rows keep their triangle indices in
#: the memos of :func:`_upper_triangle` and :func:`_triangle_columns`
#: (about 1 MB each at 500 rows); larger ones rebuild them per call.
_TRIANGLE_MEMO_ROWS = 512


@functools.lru_cache(maxsize=8)
def _upper_triangle(m: int) -> np.ndarray:
    """Read-only flat (row-major) indices of the strict upper triangle of
    an ``m x m`` matrix, in ``np.triu_indices(m, k=1)`` order."""
    rows, cols = np.triu_indices(m, k=1)
    flat = rows * m + cols
    flat.setflags(write=False)
    return flat


@functools.lru_cache(maxsize=8)
def _triangle_columns(m: int) -> np.ndarray:
    """Read-only column indices of the strict upper triangle of an
    ``m x m`` matrix, in ``np.triu_indices(m, k=1)`` order."""
    cols = np.triu_indices(m, k=1)[1]
    cols.setflags(write=False)
    return cols


def _memo(builder, m: int) -> np.ndarray:
    return builder(m) if m <= _TRIANGLE_MEMO_ROWS else builder.__wrapped__(m)


def _upper_distances(matrix: np.ndarray) -> np.ndarray:
    """The strict upper triangle of the pairwise squared distances
    ``(sq_i + sq_j) - G_ij`` with ``G = (2 M) @ M.T``, unclipped, in
    ``np.triu_indices`` order.

    A single-column block computes only the triangle's pairs: ``sq_i``
    and ``2 v_i`` repeated along each row, ``sq_j`` and ``v_j`` gathered
    by column, then the same sum, product and difference the full matrix
    takes on those pairs, so the bits are the same with neither the
    ``m x m`` matrix nor numpy's non-BLAS matmul loop.

    The gathers index with ``[]``: :func:`numpy.take` copies a read-only
    index array (the memos are read-only) on every call.
    """
    m = matrix.shape[0]
    sq = np.sum(matrix ** 2, axis=1)
    if matrix.shape[1] == 1:
        column = matrix[:, 0]
        per_row = np.arange(m - 1, -1, -1)
        cols = _memo(_triangle_columns, m)
        upper = np.repeat(sq, per_row)
        upper += sq[cols]
        cross = np.repeat(2.0 * column, per_row)
        cross *= column[cols]
        upper -= cross
        return upper
    d2 = sq[:, None] + sq[None, :]
    d2 -= 2.0 * matrix @ matrix.T
    return d2.reshape(-1)[_memo(_upper_triangle, m)]


def median_bandwidth(matrix: np.ndarray, max_points: int = 500,
                     rng: np.random.Generator | None = None) -> float:
    """Median pairwise Euclidean distance (the RBF median heuristic).

    Above ``max_points`` rows the distances are computed on a random
    subsample — always drawn from a seeded generator, so the estimate is
    deterministic but *not* row-order biased.  (Taking the first
    ``max_points`` rows, as earlier releases did without an ``rng``,
    systematically shrinks the bandwidth on sorted tables: a sorted
    prefix spans a fraction of the data range.)

    The squared distances are the strict upper triangle of
    ``(sq_i + sq_j) - G_ij`` with ``G = (2 M) @ M.T``, clipped at zero,
    gathered through triangle indices built once per subsample size (a
    single-column block computes the triangle alone, see
    :func:`_upper_distances`).  Their median comes from one
    ``partition`` at ``N // 2`` (plus the largest value below it when
    ``N`` is even), averaged exactly as :func:`numpy.median` averages its
    two middle values, so the result is bit-identical to
    ``sqrt(median(d2[triu_indices_from(d2, k=1)]))``.
    A NaN distance (non-finite input) makes that median NaN; like a
    degenerate (zero) median it yields the fallback bandwidth 1.0.
    """
    n = matrix.shape[0]
    if n > max_points:
        if rng is None:
            # The fixed fallback stream; as_generator(0) IS
            # default_rng(0), routed through the central conversion so
            # every generator in the CI layer has one construction site.
            rng = as_generator(0)
        idx = rng.choice(n, size=max_points, replace=False)
        matrix = matrix[idx]
        n = max_points
    if n < 2:
        return 1.0
    upper = _upper_distances(matrix)
    np.maximum(upper, 0.0, out=upper)
    if np.isnan(upper).any():
        return 1.0
    half = upper.size // 2
    upper.partition(half)
    middle = upper[half]
    if upper.size % 2 == 0:
        middle = (upper[:half].max() + middle) / 2.0
    med = float(np.sqrt(middle))
    return med if med > 1e-12 else 1.0


def rff_draw(rng: np.random.Generator, n_columns: int, n_features: int,
             bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw one RFF parameter set: ``(frequencies, phases)``.

    The single definition of the draw *order* (frequencies, then phases)
    — :func:`random_fourier_features` and the fused stacked-tensor path
    both consume it, so the derivation contract cannot silently drift
    between the Y/Z legs and the X legs.
    """
    frequencies = rng.normal(0.0, 1.0,
                             size=(n_columns, n_features)) / bandwidth
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    return frequencies, phases


def random_fourier_features(matrix: np.ndarray, n_features: int,
                            bandwidth: float,
                            rng: np.random.Generator) -> np.ndarray:
    """RFF approximation of an RBF kernel with the given bandwidth."""
    frequencies, phases = rff_draw(rng, matrix.shape[1], n_features,
                                   bandwidth)
    return RCIT._rff_map(matrix, frequencies, phases, n_features)


def _gamma_sf(statistic: float, shape: float, scale: float) -> float:
    """Gamma upper tail: ``scipy.stats.gamma.sf(statistic, a=shape,
    scale=scale)``, bit for bit, as the regularized upper incomplete
    gamma function, without its per-call argument handling.

    A statistic below zero (a kernel trace that rounds negative) is
    clamped: the distribution's tail there is 1, while ``gammaincc``
    returns NaN.
    """
    return float(special.gammaincc(shape, max(statistic, 0.0) / scale))


def _gamma_pvalue(statistic: float, weights: np.ndarray) -> float:
    """Satterthwaite–Welch gamma approximation for sum_i w_i chi2_1."""
    weights = weights[weights > 1e-14]
    if weights.size == 0:
        return 1.0
    mean = float(weights.sum())
    var = float(2.0 * (weights ** 2).sum())
    if var <= 0:
        return 1.0
    return _gamma_sf(statistic, mean ** 2 / var, var / mean)


class RCIT(CITester):
    """Randomized conditional independence test.

    Parameters mirror the R package: ``n_features_xy`` random features for
    X and Y (default 5 as in RCIT's ``num_f2``), ``n_features_z`` for the
    conditioning set (default 100, ``num_f``), a positive ridge
    regularisation ``ridge`` for the residualisation step, and a seed for
    the random features so results are reproducible.  ``None`` and
    ``Generator`` seeds are drawn down to one int here, once (see
    :func:`repro.rng.value_seed`).
    """

    method = "rcit"

    #: Version of the random-feature derivation scheme.  Participates in
    #: :meth:`cache_token` so a persistent store never serves verdicts
    #: computed under an older derivation (v1 consumed one stream across
    #: all blocks of a query; v2 derives one stream per block, which is
    #: what makes same-(Y, Z) fusion exact).
    _DERIVATION = 2

    def __init__(self, alpha: float = 0.01, n_features_xy: int = 5,
                 n_features_z: int = 100, ridge: float = 1e-10,
                 seed: SeedLike = None) -> None:
        super().__init__(alpha=alpha)
        if n_features_xy < 1 or n_features_z < 1:
            raise CITestError("feature counts must be positive")
        if not ridge > 0:
            raise CITestError(f"ridge must be positive, got {ridge!r}")
        self.n_features_xy = n_features_xy
        self.n_features_z = n_features_z
        self.ridge = ridge
        self._seed = value_seed(seed)

    def cache_token(self) -> tuple:
        # The seed participates: two differently-seeded RCITs are both
        # deterministic but draw different random features, so a shared
        # persistent store must never serve one the other's verdicts.
        return (("seed", self._seed),
                ("n_features_xy", self.n_features_xy),
                ("n_features_z", self.n_features_z),
                ("ridge", self.ridge),
                ("derivation", self._DERIVATION))

    # -- derivation ---------------------------------------------------------

    def _block_rng(self, table: Table,
                   names: tuple[str, ...]) -> np.random.Generator:
        """Feature-draw generator for one variable block.

        Keyed on the block's *content* fingerprint (plus the seed), not
        its names alone: a given draw then binds to one dataset's block,
        so an unlucky low-frequency draw cannot follow a column name
        across every table in a suite, and the derivation is what the
        cache layers already key on (``fingerprint_of``).
        """
        return derive(self._seed, "rcit-features",
                      table.fingerprint_of(names))

    def _bandwidth_seed(self, table: Table,
                        names: tuple[str, ...]) -> tuple[int, ...]:
        """Entropy for the block's bandwidth-subsample draw.

        A *separate* stream from the feature draws, so serving the
        bandwidth from the Table cache cannot shift the feature stream's
        position (warm and cold paths stay bitwise identical).
        """
        return derived_seed(self._seed, "rcit-bandwidth",
                            table.fingerprint_of(names))

    def _n_features_for(self, n_columns: int) -> int:
        """Random-feature budget for a block of ``n_columns`` variables.

        The R package's default (5) is tuned for scalar X and Y; a group
        query (GrpSel tests dozens of features at once) needs the budget to
        grow with the block dimension or the random projections can be
        blind to the dependent direction, making power seed-dependent.
        """
        return min(100, max(self.n_features_xy,
                            self.n_features_xy * n_columns))

    # -- kernels ------------------------------------------------------------

    @staticmethod
    def _rff_map(matrix: np.ndarray, frequencies: np.ndarray,
                 phases: np.ndarray, m: int) -> np.ndarray:
        """The RFF projection ``sqrt(2/m) * cos(matrix @ frequencies +
        phases)``; works on 2-D blocks and the fused 3-D stacks alike.

        Evaluated in place on the product's buffer: the same operations in
        the same order, hence the same bits, without three full-size
        temporaries.
        """
        out = np.matmul(matrix, frequencies)
        out += phases
        np.cos(out, out=out)
        out *= np.sqrt(2.0 / m)
        return out

    def _features_for(self, table: Table, names: tuple[str, ...],
                      n_features: int) -> np.ndarray:
        """Centred RFF block for one variable set (the shared Y/Z legs)."""
        block = table.standardized_block(names)
        bandwidth = table.median_bandwidth(
            names, seed_key=self._bandwidth_seed(table, names))
        frequencies, phases = rff_draw(self._block_rng(table, names),
                                       block.shape[1], n_features, bandwidth)
        feats = self._rff_map(block, frequencies, phases, n_features)
        feats -= feats.mean(axis=0, keepdims=True)
        return feats

    def _stacked_x_features(self, table: Table,
                            blocks: list[tuple[str, ...]]) -> np.ndarray:
        """``(k, n, m)`` centred RFF tensor for same-cardinality X blocks.

        One batched matmul maps every candidate through its own derived
        frequencies.  numpy evaluates the 3-D product as one GEMM per
        slice, so slice ``j`` is bitwise identical to the 2-D product the
        group-of-one (sequential) path computes for the same block.
        """
        d = len(blocks[0])
        m = self._n_features_for(d)
        stacked = np.stack([table.standardized_block(names)
                            for names in blocks])
        frequencies = np.empty((len(blocks), d, m))
        phases = np.empty((len(blocks), 1, m))
        for j, names in enumerate(blocks):
            bandwidth = table.median_bandwidth(
                names, seed_key=self._bandwidth_seed(table, names))
            frequencies[j], phases[j, 0] = rff_draw(
                self._block_rng(table, names), d, m, bandwidth)
        feats = self._rff_map(stacked, frequencies, phases, m)
        feats -= feats.mean(axis=1, keepdims=True)
        return feats

    def _yz_leg(self, table: Table, y_names: tuple[str, ...],
                z_names: tuple[str, ...]) -> tuple:
        """The group's shared ``(fy, fz, projector, eig_y)``.

        A conditioned leg is held in the running ledger's slot
        (:func:`~repro.ci.base.running_leg_slot`), keyed on everything it
        depends on, and served from there to the run's next group with
        the same key; an unconditioned leg (``fz`` and ``projector``
        ``None``) is cheap and never held.
        """
        slot = running_leg_slot() if z_names else None
        if slot is not None:
            key = (self.method, self.cache_token(), table.fingerprint,
                   y_names, z_names)
            leg = slot.get(key)
            if leg is not None:
                return leg
        n = table.n_rows
        fy = self._features_for(table, y_names,
                                self._n_features_for(len(y_names)))
        fz = projector = None
        if z_names:
            fz = self._features_for(table, z_names, self.n_features_z)
            gram = fz.T @ fz + self.ridge * n * np.eye(fz.shape[1])
            # One Cholesky factorisation serves the whole group.
            projector = cho_solve(cho_factor(gram), fz.T)
            fy -= fz @ (projector @ fy)
        cov_y = fy.T @ fy / n
        eig_y = np.maximum(np.linalg.eigvalsh(cov_y), 0.0)
        leg = (fy, fz, projector, eig_y)
        if slot is not None:
            for array in leg:
                array.setflags(write=False)
            slot.hold(key, leg)
        return leg

    def _group_eval(self, table: Table, y_names: tuple[str, ...],
                    z_names: tuple[str, ...],
                    x_blocks: list[tuple[str, ...]]
                    ) -> list[tuple[float, float]]:
        """``(p_value, statistic)`` per candidate sharing one (Y, Z) leg."""
        self._check_finite(table, y_names, z_names, x_blocks)
        n = table.n_rows
        fy, fz, projector, eig_y = self._yz_leg(table, y_names, z_names)

        out: list[tuple[float, float] | None] = [None] * len(x_blocks)
        by_cardinality: dict[int, list[int]] = {}
        for j, names in enumerate(x_blocks):
            by_cardinality.setdefault(len(names), []).append(j)
        for members in by_cardinality.values():
            fx = self._stacked_x_features(
                table, [x_blocks[j] for j in members])
            if fz is not None:
                fx -= np.matmul(fz, np.matmul(projector, fx))
            for slot, j in enumerate(members):
                out[j] = self._query_pvalue(fx[slot], fy, eig_y, n)
        return out

    def _query_pvalue(self, fx: np.ndarray, fy: np.ndarray,
                      eig_y: np.ndarray, n: int) -> tuple[float, float]:
        """Per-query statistic from its residual features (small arrays)."""
        cross_cov = fx.T @ fy / n
        statistic = float(n * np.sum(cross_cov ** 2))
        cov_x = fx.T @ fx / n
        eig_x = np.maximum(np.linalg.eigvalsh(cov_x), 0.0)
        weights = np.outer(eig_x, eig_y).ravel()
        return _gamma_pvalue(statistic, weights), statistic


class RIT(RCIT):
    """Unconditional randomized independence test (RCIT with empty Z).

    RIT *drops* Z: :meth:`_group_key` groups every query as ``(y, ())``,
    so the group kernel never conditions on Z and all queries against
    one Y share the empty conditioning leg.
    """

    method = "rit"

    def cache_token(self) -> tuple:
        # Beyond the distinct ``method``: mark that Z is *dropped*, so an
        # RIT verdict for (x, y | z) can never alias RCIT's conditional
        # verdict in any store that keys on the token alone.
        return super().cache_token() + (("effective_z", "dropped"),)

    def _group_key(self, query: CIQuery) -> tuple:
        return (query.y, ())
