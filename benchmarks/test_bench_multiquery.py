"""Micro-benchmark for the multi-query CI layer.

Quantifies the two PR-2 engine claims and records them as a
``BENCH_multiquery.json`` artifact (the start of the repo's performance
trajectory; the CI smoke job uploads it):

1. **Fused same-(Y, Z) kernel** — a phase-2 burst (many candidates, one
   shared conditioning pair) through ``GTestCI.test_batch`` is >= 3x
   faster than the per-query path, with bitwise-identical results.
2. **Persistent cross-run cache** — re-running the same burst against a
   warm :class:`~repro.ci.store.PersistentCICache` executes *zero* tests.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import interleaved_medians, write_bench_artifact
from repro.ci.base import CIQuery, CITestLedger
from repro.ci.gtest import GTestCI
from repro.ci.store import PersistentCICache
from repro.data.table import Table

RESULTS: dict = {}

N_ROWS = 2000
N_CANDIDATES = 144  # the Table-2 Cognito-expanded candidate regime


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    """Persist whatever the benchmarks in this module measured."""
    yield
    write_bench_artifact("multiquery",
                         {"n_rows": N_ROWS, "n_candidates": N_CANDIDATES},
                         RESULTS)


@pytest.fixture(scope="module")
def burst():
    """Phase-2-burst workload: every candidate against one (Y, Z) pair."""
    rng = np.random.default_rng(0)
    data = {
        "s": rng.integers(0, 2, N_ROWS),
        "y": rng.integers(0, 2, N_ROWS),
        "a1": rng.integers(0, 4, N_ROWS),
        "a2": rng.integers(0, 3, N_ROWS),
    }
    for i in range(N_CANDIDATES):
        data[f"f{i}"] = rng.integers(0, 2 + i % 5, N_ROWS)
    table = Table(data).warm_cache()
    queries = [CIQuery.make(f"f{i}", "y", ("a1", "a2", "s"))
               for i in range(N_CANDIDATES)]
    return table, queries


def test_fused_multiquery_speedup(benchmark, burst):
    """Acceptance: fused same-(Y, Z) batch >= 3x the per-query path."""
    table, queries = burst
    tester = GTestCI()

    # Bitwise parity first, so the speedup claim is about the same answers.
    fused_results = tester.test_batch(table, queries)
    sequential_results = [tester.test(table, q.x, q.y, q.z) for q in queries]
    for got, want in zip(fused_results, sequential_results):
        assert got.p_value == want.p_value
        assert got.statistic == want.statistic
        assert got.independent == want.independent

    per_query, fused = interleaved_medians(
        lambda: [tester.test(table, q.x, q.y, q.z) for q in queries],
        lambda: tester.test_batch(table, queries), rounds=7)
    speedup = per_query / fused
    RESULTS["fused_same_yz_burst"] = {
        "per_query_ms_per_test": 1e3 * per_query / N_CANDIDATES,
        "fused_ms_per_test": 1e3 * fused / N_CANDIDATES,
        "speedup": speedup,
    }
    print(f"\nfused same-(Y,Z) burst of {N_CANDIDATES}: per-query "
          f"{1e3 * per_query / N_CANDIDATES:.3f} ms/test, fused "
          f"{1e3 * fused / N_CANDIDATES:.3f} ms/test, "
          f"speedup {speedup:.1f}x")
    assert speedup >= 3.0

    benchmark.pedantic(lambda: tester.test_batch(table, queries),
                       rounds=3, iterations=1)


def test_persistent_cache_warm_rerun(benchmark, burst, tmp_path_factory):
    """Acceptance: a warm persistent-cache rerun executes 0 tests."""
    table, queries = burst
    cache_dir = tmp_path_factory.mktemp("ci-cache")
    path = cache_dir / "cache.json"

    cold_start = time.perf_counter()
    cold = CITestLedger(GTestCI(), cache=PersistentCICache(path))
    cold_results = cold.test_batch(table, queries)
    cold.flush_cache()
    cold_seconds = time.perf_counter() - cold_start
    assert cold.n_tests == N_CANDIDATES

    def warm_run():
        # A fresh ledger *and* a fresh store: everything comes off disk.
        ledger = CITestLedger(GTestCI(), cache=PersistentCICache(path))
        return ledger, ledger.test_batch(table, queries)

    warm_ledger, warm_results = warm_run()
    assert warm_ledger.n_tests == 0
    assert warm_ledger.cache_hits == N_CANDIDATES
    assert [r.p_value for r in warm_results] == \
           [r.p_value for r in cold_results]
    assert [r.independent for r in warm_results] == \
           [r.independent for r in cold_results]

    (warm_seconds,) = interleaved_medians(warm_run)
    speedup = cold_seconds / warm_seconds
    RESULTS["persistent_cache"] = {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_tests_executed": warm_ledger.n_tests,
        "store_entries": len(PersistentCICache(path)),
        "speedup": speedup,
    }
    print(f"\npersistent cache: cold {1e3 * cold_seconds:.1f} ms, warm "
          f"rerun {1e3 * warm_seconds:.1f} ms (0 tests executed), "
          f"speedup {speedup:.1f}x")

    benchmark.pedantic(lambda: warm_run(), rounds=3, iterations=1)
