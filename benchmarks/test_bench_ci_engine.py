"""Micro-benchmark for the batched vectorised CI engine.

Quantifies the two engine claims: (1) the fused-bincount G-test kernel is
>= 3x faster than the seed's Python-loop-over-strata implementation on a
Figure-2-style discrete workload, and (2) `test_batch` over shared encoded
state cuts per-test latency versus cold sequential calls.  Speedups and
per-test latencies are printed so benchmark runs record them.
"""

import numpy as np
import pytest
from scipy import stats

from benchmarks.conftest import interleaved_medians
from repro.ci.base import CIQuery, CITestLedger, encode_rows
from repro.ci.gtest import GTestCI
from repro.data.table import Table


def legacy_gtest(x, y, z):
    """The seed implementation: a Python loop over conditioning strata."""
    x_codes = encode_rows(np.round(x).astype(np.int64))
    y_codes = encode_rows(np.round(y).astype(np.int64))
    z_codes = (encode_rows(np.round(z).astype(np.int64))
               if z is not None else np.zeros_like(x_codes))
    statistic = 0.0
    dof = 0
    for stratum in np.unique(z_codes):
        mask = z_codes == stratum
        xs, ys = x_codes[mask], y_codes[mask]
        x_vals, x_idx = np.unique(xs, return_inverse=True)
        y_vals, y_idx = np.unique(ys, return_inverse=True)
        if x_vals.size < 2 or y_vals.size < 2:
            continue
        counts = np.zeros((x_vals.size, y_vals.size))
        np.add.at(counts, (x_idx, y_idx), 1)
        expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / counts.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(counts > 0, counts * np.log(counts / expected), 0.0)
        statistic += 2.0 * terms.sum()
        dof += (x_vals.size - 1) * (y_vals.size - 1)
    if dof == 0:
        return 1.0, 0.0
    return float(stats.chi2.sf(statistic, dof)), statistic


@pytest.fixture(scope="module")
def discrete_table():
    """Figure-2-shaped workload: binary S/Y, small-cardinality admissibles
    giving dozens of strata, and a pool of discrete candidates."""
    rng = np.random.default_rng(0)
    n = 4000
    data = {
        "s": (rng.random(n) < 0.5).astype(int),
        "y": (rng.random(n) < 0.5).astype(int),
        "a1": rng.integers(0, 4, n),
        "a2": rng.integers(0, 4, n),
        "a3": rng.integers(0, 3, n),
    }
    for i in range(24):
        data[f"f{i}"] = rng.integers(0, 3 + i % 3, n)
    return Table(data)


def test_vectorised_kernel_speedup_vs_seed(benchmark, discrete_table):
    """Acceptance: fused-bincount kernel >= 3x the seed's stratum loop."""
    t = discrete_table
    tester = GTestCI()
    z_names = ["a1", "a2", "a3"]  # 48 strata: the stratum loop's worst case
    queries = [(f"f{i}", "s", z_names) for i in range(24)]
    matrices = [(t.matrix([x]), t.matrix([y]), t.matrix(z))
                for x, y, z in queries]

    def run_vectorised():
        # One fresh table per run, as in a selector pass: encode caches are
        # built on first touch and shared by the burst of queries.
        fresh = Table(t.to_dict())
        return [tester.test(fresh, x, y, z) for x, y, z in queries]

    legacy, vectorised = interleaved_medians(
        lambda: [legacy_gtest(x, y, z) for x, y, z in matrices],
        run_vectorised)

    # Same answers (up to float-accumulation order).
    for (x, y, z), (xm, ym, zm) in zip(queries, matrices):
        got = tester.test(t, x, y, z)
        want_p, want_stat = legacy_gtest(xm, ym, zm)
        assert got.p_value == pytest.approx(want_p, abs=1e-9)
        assert got.statistic == pytest.approx(want_stat, rel=1e-9)

    speedup = legacy / vectorised
    print(f"\nG-test kernel: legacy {1e3 * legacy / 24:.3f} ms/test, "
          f"vectorised (fresh table per run) {1e3 * vectorised / 24:.3f} "
          f"ms/test, speedup {speedup:.1f}x")
    assert speedup >= 3.0

    benchmark.pedantic(
        lambda: [tester.test(t, x, y, z) for x, y, z in queries],
        rounds=3, iterations=1)


def test_batch_speedup_vs_cold_sequential(benchmark, discrete_table):
    """Batched evaluation over shared codes vs per-query cold tables."""
    t = discrete_table
    queries = [CIQuery.make(f"f{i}", "y", ["a1", "a2", "s"])
               for i in range(24)]

    def batched():
        ledger = CITestLedger(GTestCI())
        return ledger.test_batch(Table(t.to_dict()), queries)

    cold, warm = interleaved_medians(
        lambda: [GTestCI().test(Table(t.to_dict()), q.x, q.y, list(q.z))
                 for q in queries],
        batched)
    results = benchmark.pedantic(batched, rounds=3, iterations=1)

    assert len(results) == 24 and all(r is not None for r in results)
    print(f"\nbatch of 24: cold-sequential {1e3 * cold / 24:.3f} ms/test, "
          f"batched {1e3 * warm / 24:.3f} ms/test, "
          f"speedup {cold / warm:.1f}x")
    # Shared Z/Y encoding must make the batch strictly cheaper than
    # re-encoding per query (conservative bound to avoid timer flakes).
    assert warm <= cold


def test_ledger_batch_accounting_overhead(discrete_table):
    """The ledger's batch path must not distort counts on this workload."""
    t = discrete_table
    queries = [CIQuery.make(f"f{i}", "s", ["a1"]) for i in range(24)]
    batched = CITestLedger(GTestCI())
    batched.test_batch(t, queries)
    sequential = CITestLedger(GTestCI())
    for q in queries:
        sequential.test(t, q.x, q.y, q.z)
    assert batched.n_tests == sequential.n_tests == 24
    assert [e.result.p_value for e in batched.entries] == \
           [e.result.p_value for e in sequential.entries]
