"""Micro-benchmark for the fused continuous CI batch engine (PR 4).

Quantifies the continuous analogue of the discrete fusion claims and
records them as a ``BENCH_continuous.json`` artifact (uploaded by the CI
smoke job alongside the other ``BENCH_*.json`` files):

1. **Fused same-(Y, Z) RCIT burst** — a phase-2 burst (>= 100 candidates,
   one shared conditioning pair, n ~ 2000) through ``RCIT.test_batch``
   must be >= 3x faster than the per-query serial path, with bitwise
   identical results (the acceptance claim).
2. **KCIT group sharing** — the centred ``K_Z``, its ridge inverse, and
   ``K_{Y|Z}`` are computed once per group; recorded, not asserted (the
   O(n^3) constant factors vary across runners).
3. **Fisher-z group factorisation** — one QR of the ``[1, Z]`` design per
   group; recorded, not asserted.
"""

import numpy as np
import pytest

from benchmarks.conftest import interleaved_medians, write_bench_artifact
from repro.ci.base import CIQuery
from repro.ci.fisher_z import FisherZCI
from repro.ci.kcit import KCIT
from repro.ci.rcit import RCIT
from repro.data.table import Table

RESULTS: dict = {}

N_ROWS = 2000
N_CANDIDATES = 120


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    """Persist whatever the benchmarks in this module measured."""
    yield
    write_bench_artifact("continuous",
                         {"n_rows": N_ROWS, "n_candidates": N_CANDIDATES},
                         RESULTS)


def continuous_burst(n_rows, n_candidates, seed=0):
    """Phase-2-burst workload: every candidate against one (Y, Z) pair."""
    rng = np.random.default_rng(seed)
    z1 = rng.normal(size=n_rows)
    z2 = rng.normal(size=n_rows)
    data = {"y": 0.7 * z1 + rng.normal(size=n_rows), "z1": z1, "z2": z2}
    for i in range(n_candidates):
        data[f"f{i}"] = rng.normal(size=n_rows) + \
            (0.6 * z1 if i % 3 == 0 else 0.0)
    table = Table(data).warm_cache()
    queries = [CIQuery.make(f"f{i}", "y", ("z1", "z2"))
               for i in range(n_candidates)]
    return table, queries


@pytest.fixture(scope="module")
def burst():
    return continuous_burst(N_ROWS, N_CANDIDATES)


def _assert_bitwise(fused, sequential):
    for got, want in zip(fused, sequential):
        assert got.p_value == want.p_value
        assert got.statistic == want.statistic
        assert got.independent == want.independent


def test_fused_rcit_burst_speedup(benchmark, burst):
    """Acceptance: fused same-(Y, Z) RCIT burst >= 3x per-query serial."""
    table, queries = burst
    tester = RCIT(seed=0)

    # Bitwise parity first, so the speedup claim is about the same answers.
    _assert_bitwise(tester.test_batch(table, queries),
                    [tester.test(table, q.x, q.y, q.z) for q in queries])

    per_query, fused = interleaved_medians(
        lambda: [tester.test(table, q.x, q.y, q.z) for q in queries],
        lambda: tester.test_batch(table, queries), rounds=3)
    speedup = per_query / fused
    RESULTS["fused_rcit_same_yz_burst"] = {
        "per_query_ms_per_test": 1e3 * per_query / len(queries),
        "fused_ms_per_test": 1e3 * fused / len(queries),
        "speedup": speedup,
    }
    print(f"\nfused RCIT same-(Y,Z) burst of {len(queries)}: per-query "
          f"{1e3 * per_query / len(queries):.2f} ms/test, fused "
          f"{1e3 * fused / len(queries):.2f} ms/test, "
          f"speedup {speedup:.1f}x")
    assert speedup >= 3.0

    benchmark.pedantic(lambda: tester.test_batch(table, queries),
                       rounds=3, iterations=1)


def test_kcit_group_sharing(benchmark):
    """Informational: KCIT group-shared K_Z/K_{Y|Z} vs per-query."""
    table, queries = continuous_burst(400, 12, seed=1)
    tester = KCIT(seed=0)

    _assert_bitwise(tester.test_batch(table, queries),
                    [tester.test(table, q.x, q.y, q.z) for q in queries])

    per_query, fused = interleaved_medians(
        lambda: [tester.test(table, q.x, q.y, q.z) for q in queries],
        lambda: tester.test_batch(table, queries), rounds=3)
    RESULTS["kcit_group_shared"] = {
        "n_rows": 400, "n_candidates": 12,
        "per_query_ms_per_test": 1e3 * per_query / len(queries),
        "fused_ms_per_test": 1e3 * fused / len(queries),
        "speedup": per_query / fused,
    }
    print(f"\nKCIT group of {len(queries)} at n=400: per-query "
          f"{1e3 * per_query / len(queries):.1f} ms/test, group-shared "
          f"{1e3 * fused / len(queries):.1f} ms/test, "
          f"speedup {per_query / fused:.1f}x")

    benchmark.pedantic(lambda: tester.test_batch(table, queries),
                       rounds=3, iterations=1)


def test_fisher_z_group_factorisation(benchmark, burst):
    """Informational: Fisher-z one-QR-per-group vs per-query."""
    table, queries = burst
    tester = FisherZCI()

    _assert_bitwise(tester.test_batch(table, queries),
                    [tester.test(table, q.x, q.y, q.z) for q in queries])

    per_query, fused = interleaved_medians(
        lambda: [tester.test(table, q.x, q.y, q.z) for q in queries],
        lambda: tester.test_batch(table, queries))
    RESULTS["fisher_z_group_factorisation"] = {
        "per_query_ms_per_test": 1e3 * per_query / len(queries),
        "fused_ms_per_test": 1e3 * fused / len(queries),
        "speedup": per_query / fused,
    }
    print(f"\nFisher-z burst of {len(queries)}: per-query "
          f"{1e3 * per_query / len(queries):.3f} ms/test, fused "
          f"{1e3 * fused / len(queries):.3f} ms/test, "
          f"speedup {per_query / fused:.1f}x")

    benchmark.pedantic(lambda: tester.test_batch(table, queries),
                       rounds=3, iterations=1)
