"""Micro-benchmark for the process executor (PR 3).

Quantifies the engine's third execution layer and records it as a
``BENCH_process_executor.json`` artifact (uploaded by the CI smoke job):

1. **Process-parallel discrete burst** — a >=150-query phase-2 G-test
   burst through :class:`~repro.ci.executor.ProcessExecutor` (2 workers,
   warm reused pool) versus :class:`SerialExecutor`.  The discrete fused
   kernel holds the GIL, so only processes can run it in parallel.  The
   speedup is asserted only on machines with at least 4 cores — with
   fewer, the two workers share cores with the parent and anything else
   running — and always recorded; bitwise result parity and count
   preservation are asserted unconditionally.
2. **Warm-pool reuse** — the pool start-up cost is paid once: a second
   burst through the same executor runs without re-spawning workers.
3. **Warm ExperimentStore rerun** — `table2_row`-shaped check at ledger
   level: with the suite store warm, the burst executes zero tests.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import interleaved_medians, write_bench_artifact
from repro.ci.base import CIQuery, CITestLedger
from repro.ci.executor import ProcessExecutor, SerialExecutor
from repro.ci.gtest import GTestCI
from repro.ci.store import ExperimentStore
from repro.data.table import Table

RESULTS: dict = {}

N_ROWS = 100_000
N_CANDIDATES = 160  # >=150-query discrete phase-2 burst (Table 2 regime)
N_WORKERS = 2

quad_core = (os.cpu_count() or 1) >= 4


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    """Persist whatever the benchmarks in this module measured."""
    yield
    write_bench_artifact("process_executor",
                         {"n_rows": N_ROWS, "n_candidates": N_CANDIDATES,
                          "n_workers": N_WORKERS,
                          "start_method": multiprocessing.get_start_method()},
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


def test_process_burst_speedup_and_parity(benchmark, burst):
    """Acceptance: 2 process workers beat serial on a >=150-query discrete
    burst (machines with >= 4 cores), with bitwise-identical results."""
    table, queries = burst
    tester = GTestCI()
    serial_executor = SerialExecutor()

    with ProcessExecutor(n_workers=N_WORKERS,
                         min_batch=2) as process_executor:
        # Parity first (this also pays the one-off pool start-up), so the
        # timing comparison below is about the same answers and a warm pool.
        startup = time.perf_counter()
        process_results = process_executor.run(tester, table, queries)
        first_run_seconds = time.perf_counter() - startup
        serial_results = serial_executor.run(tester, table, queries)
        for got, want in zip(process_results, serial_results):
            assert got.p_value == want.p_value
            assert got.statistic == want.statistic
            assert got.independent == want.independent
            assert got.query == want.query

        serial, process = interleaved_medians(
            lambda: serial_executor.run(tester, table, queries),
            lambda: process_executor.run(tester, table, queries))
        speedup = serial / process
        RESULTS["discrete_burst"] = {
            "serial_seconds": serial,
            "process_seconds_warm_pool": process,
            "process_seconds_first_run": first_run_seconds,
            "speedup": speedup,
            "asserted": quad_core,
        }
        print(f"\nprocess burst of {N_CANDIDATES}x{N_ROWS}: serial "
              f"{1e3 * serial:.1f} ms, {N_WORKERS} workers "
              f"{1e3 * process:.1f} ms (first run incl. pool start "
              f"{1e3 * first_run_seconds:.1f} ms), speedup {speedup:.2f}x")
        if quad_core:
            assert speedup > 1.0, (
                f"2 process workers did not beat serial: {speedup:.2f}x")

        # Ledger accounting is executor-invariant.
        ledger = CITestLedger(GTestCI(), executor=process_executor)
        ledger.test_batch(table, queries)
        assert ledger.n_tests == N_CANDIDATES
        assert ledger.cache_hits == 0

        benchmark.pedantic(
            lambda: process_executor.run(tester, table, queries),
            rounds=3, iterations=1)


def test_warm_experiment_store_executes_zero_tests(benchmark, burst,
                                                   tmp_path_factory):
    """Acceptance: a warm suite-store rerun of the burst executes 0 tests."""
    table, queries = burst
    root = tmp_path_factory.mktemp("suite-store")

    cold_store = ExperimentStore(root)
    cold = CITestLedger(GTestCI(), cache=cold_store.ci_cache("bench"))
    cold_results = cold.test_batch(table, queries)
    cold_store.save()
    assert cold.n_tests == N_CANDIDATES

    def warm_run():
        store = ExperimentStore(root)  # everything comes off disk
        ledger = CITestLedger(GTestCI(), cache=store.ci_cache("bench"))
        return ledger, ledger.test_batch(table, queries)

    warm_ledger, warm_results = warm_run()
    assert warm_ledger.n_tests == 0
    assert warm_ledger.cache_hits == N_CANDIDATES
    assert [r.p_value for r in warm_results] == \
           [r.p_value for r in cold_results]

    (warm_seconds,) = interleaved_medians(warm_run)
    RESULTS["warm_experiment_store"] = {
        "warm_seconds": warm_seconds,
        "warm_tests_executed": warm_ledger.n_tests,
    }
    print(f"\nwarm ExperimentStore rerun: {1e3 * warm_seconds:.1f} ms, "
          f"0 of {N_CANDIDATES} tests executed")

    benchmark.pedantic(lambda: warm_run(), rounds=3, iterations=1)
