"""Tests for the discrete conditional mutual information estimator."""

import numpy as np
import pytest

from repro.ci.cmi import discrete_cmi
from repro.data.table import Table
from repro.exceptions import CITestError


def discrete_table(n=20_000, seed=0):
    rng = np.random.default_rng(seed)
    s = (rng.random(n) < 0.5).astype(int)
    a = np.where(rng.random(n) < 0.85, s, 1 - s)
    x_med = np.where(rng.random(n) < 0.85, a, 1 - a)   # mediated by a
    proxy = np.where(rng.random(n) < 0.05, 1 - s, s)   # direct copy
    noise = (rng.random(n) < 0.5).astype(int)
    return Table({"s": s, "a": a, "x": x_med, "proxy": proxy, "noise": noise})


class TestDiscreteCMI:
    def test_independent_pair_near_zero(self):
        assert discrete_cmi(discrete_table(), "noise", "s") < 0.001

    def test_copy_has_high_mi(self):
        # MI of a 5%-flipped copy of a fair coin ≈ ln2 - H(0.05) ≈ 0.49 nats.
        value = discrete_cmi(discrete_table(), "proxy", "s")
        assert 0.35 < value < 0.7

    def test_conditioning_reduces_mediated_dependence(self):
        t = discrete_table()
        marginal = discrete_cmi(t, "x", "s")
        conditional = discrete_cmi(t, "x", "s", "a")
        assert marginal > 0.05
        assert conditional < 0.005

    def test_symmetry(self):
        t = discrete_table()
        assert discrete_cmi(t, "proxy", "s") == pytest.approx(
            discrete_cmi(t, "s", "proxy"))

    def test_empty_x_rejected(self):
        with pytest.raises(CITestError):
            discrete_cmi(discrete_table(), [], "s")

    def test_known_value_perfect_copy(self):
        """CMI(X; X-copy) = H(X) = ln 2 for a fair coin."""
        rng = np.random.default_rng(1)
        s = (rng.random(50_000) < 0.5).astype(int)
        t = Table({"a": s, "b": s.copy()})
        assert discrete_cmi(t, "a", "b") == pytest.approx(np.log(2), abs=0.01)


def reference_cmi(table, xs, ys, zs):
    """The pre-fusion implementation: a Python dict loop over rows."""
    from repro.ci.base import encode_rows

    def codes(names):
        matrix = (np.column_stack([np.asarray(table[n], dtype=float)
                                   for n in names])
                  if names else np.zeros((table.n_rows, 0)))
        return encode_rows(np.round(matrix).astype(np.int64))

    n = table.n_rows
    cx, cy, cz = codes(xs), codes(ys), codes(zs)
    joint, xz, yz, z_cnt = {}, {}, {}, {}
    for a, b, c in zip(cx.tolist(), cy.tolist(), cz.tolist()):
        joint[(a, b, c)] = joint.get((a, b, c), 0) + 1
        xz[(a, c)] = xz.get((a, c), 0) + 1
        yz[(b, c)] = yz.get((b, c), 0) + 1
        z_cnt[c] = z_cnt.get(c, 0) + 1
    cmi = 0.0
    for (a, b, c), n_abc in joint.items():
        cmi += (n_abc / n) * np.log((n_abc * z_cnt[c])
                                    / (xz[(a, c)] * yz[(b, c)]))
    return float(cmi)


class TestFusedKernelEquality:
    """The fused-bincount rewrite must reproduce the dict-loop estimate."""

    CASES = [
        (["proxy"], ["s"], []),
        (["x"], ["s"], ["a"]),
        (["x", "noise"], ["s"], ["a", "proxy"]),
        (["noise"], ["s"], ["a", "x", "proxy"]),
    ]

    @pytest.mark.parametrize("xs,ys,zs", CASES)
    def test_matches_reference(self, xs, ys, zs):
        table = discrete_table(n=4000)
        want = reference_cmi(table, xs, ys, zs)
        got = discrete_cmi(table, xs, ys, zs, truncate=False)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("xs,ys,zs", CASES)
    def test_sparse_path_matches_dense(self, monkeypatch, xs, ys, zs):
        table = discrete_table(n=4000)
        dense = discrete_cmi(table, xs, ys, zs, truncate=False)
        monkeypatch.setattr("repro.ci.cmi.MAX_DENSE_CELLS", 1)
        sparse = discrete_cmi(Table(table.to_dict()), xs, ys, zs,
                              truncate=False)
        assert sparse == pytest.approx(dense, abs=1e-12)

    def test_empty_table(self):
        t = Table({"a": np.array([], dtype=int), "b": np.array([], dtype=int)})
        assert discrete_cmi(t, "a", "b") == 0.0
