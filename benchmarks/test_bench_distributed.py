"""Micro-benchmark for distributed execution (the RemoteExecutor stack).

Quantifies the work-queue execution layer and records it as a
``BENCH_distributed.json`` artifact (uploaded by the CI smoke job):

1. **Distributed discrete burst** — a >=150-query phase-2 G-test burst
   through :class:`~repro.ci.executor.RemoteExecutor` dispatching to two
   real ``python -m repro worker`` subprocesses over a filesystem spool,
   versus :class:`SerialExecutor`.  The speedup is asserted (>=2x) only
   on >=4-core machines — the transport round-trip rides on top of true
   parallelism, so on 1–2 cores the win cannot exist by definition — and
   always *recorded* with its gate status.  Bitwise result parity and
   ledger-count preservation are asserted unconditionally, on every box.
2. **Worker-synced store warm rerun** — the dispatching run's ledger
   writes the verdicts the workers computed during the burst into a
   shared store; a warm ledger over that store executes zero tests.
3. **RCIT-heavy burst, remote vs process** — 21 RCIT queries on 6000
   rows, each its own ``(Y, Z)`` group so nothing fuses, run serially,
   on a warm two-worker :class:`~repro.ci.executor.ProcessExecutor` and
   on the spool workers.  Parity is asserted; the three timings and both
   ratios are recorded, never asserted.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.ci.base import CIQuery, CITestLedger
from repro.ci.executor import ProcessExecutor, RemoteExecutor, SerialExecutor
from repro.ci.gtest import GTestCI
from repro.ci.rcit import RCIT
from repro.ci.store import ExperimentStore
from repro.data.table import Table

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_distributed.json"
RESULTS: dict = {}

N_ROWS = 100_000
N_CANDIDATES = 160  # >=150-query discrete phase-2 burst (Table 2 regime)
N_WORKERS = 2
REPEATS = 3

quad_core = (os.cpu_count() or 1) >= 4


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    """Persist whatever the benchmarks in this module measured."""
    yield
    if RESULTS:
        payload = {"benchmark": "distributed", "format_version": 1,
                   "workload": {"n_rows": N_ROWS,
                                "n_candidates": N_CANDIDATES,
                                "n_workers": N_WORKERS,
                                "transport": "filesystem spool",
                                "cpu_count": os.cpu_count()},
                   "results": RESULTS}
        ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"\nwrote {ARTIFACT}")


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


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A spool served by real worker subprocesses."""
    spool = tmp_path_factory.mktemp("distributed-bench") / "spool"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    workers = [subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--queue", str(spool),
         "--max-idle", "300"],
        cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL) for _ in range(N_WORKERS)]
    try:
        yield spool
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait(timeout=30)


def _median_seconds(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def test_distributed_burst_speedup_and_parity(benchmark, burst, fleet):
    """Acceptance: 2 worker processes beat serial >=2x on a >=150-query
    discrete burst (>=4-core machines), with bitwise-identical results."""
    table, queries = burst
    spool = fleet
    tester = GTestCI()
    serial_executor = SerialExecutor()
    remote_executor = RemoteExecutor(queue=str(spool), n_workers=N_WORKERS,
                                     min_batch=2)

    # Parity first (this also pays the one-off context publication), so
    # the timing comparison is about the same answers and a warm context.
    startup = time.perf_counter()
    remote_results = remote_executor.run(tester, table, queries)
    first_run_seconds = time.perf_counter() - startup
    serial_results = serial_executor.run(tester, table, queries)
    for got, want in zip(remote_results, serial_results):
        assert got.p_value == want.p_value
        assert got.statistic == want.statistic
        assert got.independent == want.independent
        assert got.query == want.query

    serial = _median_seconds(
        lambda: serial_executor.run(tester, table, queries))
    remote = _median_seconds(
        lambda: remote_executor.run(tester, table, queries))
    speedup = serial / remote
    RESULTS["distributed_burst"] = {
        "serial_seconds": serial,
        "remote_seconds_warm_context": remote,
        "remote_seconds_first_run": first_run_seconds,
        "speedup": speedup,
        "asserted": quad_core,
        "gate": ">=2x asserted only on >=4 cores",
    }
    gate_note = ("asserted" if quad_core
                 else f"recorded only: {os.cpu_count()} core(s)")
    print(f"\ndistributed burst of {N_CANDIDATES}x{N_ROWS}: serial "
          f"{1e3 * serial:.1f} ms, {N_WORKERS} worker processes "
          f"{1e3 * remote:.1f} ms (first run incl. context publish "
          f"{1e3 * first_run_seconds:.1f} ms), speedup {speedup:.2f}x "
          f"({gate_note})")
    if quad_core:
        assert speedup >= 2.0, (
            f"{N_WORKERS} worker processes did not win >=2x: "
            f"{speedup:.2f}x")

    # Ledger accounting is executor-invariant.
    ledger = CITestLedger(GTestCI(), executor=remote_executor)
    ledger.test_batch(table, queries)
    assert ledger.n_tests == N_CANDIDATES
    assert ledger.cache_hits == 0

    benchmark.pedantic(
        lambda: remote_executor.run(tester, table, queries),
        rounds=2, iterations=1)
    remote_executor.close()


def test_worker_synced_store_warm_rerun_zero_tests(benchmark, burst,
                                                   fleet, tmp_path):
    """Acceptance: the verdicts the workers computed during the burst
    reach the shared store through the dispatching run's ledger (the one
    writer of verdicts to a store) and warm-start a ledger over it —
    zero tests execute."""
    table, queries = burst
    spool = fleet
    store_root = tmp_path / "store"
    executor = RemoteExecutor(queue=str(spool), n_workers=N_WORKERS,
                              min_batch=2)
    cold_ledger = CITestLedger(
        GTestCI(), cache=ExperimentStore(store_root).ci_cache("g-test"),
        executor=executor)
    cold_results = cold_ledger.test_batch(table, queries)
    cold_ledger.flush_cache()
    executor.close()
    assert cold_ledger.n_tests == N_CANDIDATES

    def warm_run():
        store = ExperimentStore(store_root)  # everything comes off disk
        ledger = CITestLedger(GTestCI(), cache=store.ci_cache("g-test"))
        return ledger, ledger.test_batch(table, queries)

    warm_ledger, warm_results = warm_run()
    assert warm_ledger.n_tests == 0
    assert warm_ledger.cache_hits == N_CANDIDATES
    assert [r.p_value for r in warm_results] == \
           [r.p_value for r in cold_results]

    warm_seconds = _median_seconds(lambda: warm_run())
    RESULTS["warm_worker_synced_store"] = {
        "warm_seconds": warm_seconds,
        "warm_tests_executed": warm_ledger.n_tests,
        "warm_cache_hits": warm_ledger.cache_hits,
    }
    print(f"\nwarm worker-synced store rerun: {1e3 * warm_seconds:.1f} ms, "
          f"0 of {N_CANDIDATES} tests executed")

    benchmark.pedantic(lambda: warm_run(), rounds=2, iterations=1)


RCIT_ROWS = 6000
RCIT_ADMISSIBLE = 6
RCIT_CANDIDATES = 8


@pytest.fixture(scope="module")
def rcit_burst():
    """One RCIT query per 1- or 2-subset Z of six admissible columns:
    21 distinct ``(Y, Z)`` groups, so no two queries fuse."""
    rng = np.random.default_rng(0)
    admissible = [f"a{i}" for i in range(RCIT_ADMISSIBLE)]
    candidates = [f"c{i}" for i in range(RCIT_CANDIDATES)]
    data = {"s": rng.integers(0, 2, RCIT_ROWS).astype(float)}
    for name in admissible:
        data[name] = rng.normal(size=RCIT_ROWS) + 0.5 * data["s"]
    for i, name in enumerate(candidates):
        data[name] = (rng.normal(size=RCIT_ROWS)
                      + 0.3 * data[admissible[i % RCIT_ADMISSIBLE]])
    table = Table(data).warm_cache()
    subsets = [z for k in (1, 2)
               for z in itertools.combinations(admissible, k)]
    queries = [CIQuery.make(candidates[i % RCIT_CANDIDATES], "s", z)
               for i, z in enumerate(subsets)]
    return table, queries


def test_rcit_burst_remote_vs_process(benchmark, rcit_burst, fleet):
    """Record whether the spool pays against a local process pool on a
    kernel-heavy burst: serial, ProcessExecutor and RemoteExecutor must
    agree bit for bit; the timings are recorded, not gated."""
    table, queries = rcit_burst
    spool = fleet
    tester = RCIT(seed=0)
    serial_executor = SerialExecutor()
    serial_results = serial_executor.run(tester, table, queries)
    with ProcessExecutor(n_workers=N_WORKERS, min_batch=2) as process, \
            RemoteExecutor(queue=str(spool), n_workers=N_WORKERS,
                           min_batch=2, degrade=False) as remote:
        # The first runs start the pool and publish the context; both
        # answers must equal the serial ones bit for bit.
        for executor in (process, remote):
            for got, want in zip(executor.run(tester, table, queries),
                                 serial_results, strict=True):
                assert got.query == want.query
                assert got.p_value == want.p_value
                assert got.statistic == want.statistic
                assert got.independent == want.independent
        serial = _median_seconds(
            lambda: serial_executor.run(tester, table, queries))
        pooled = _median_seconds(lambda: process.run(tester, table, queries))
        spooled = _median_seconds(lambda: remote.run(tester, table, queries))
        benchmark.pedantic(lambda: remote.run(tester, table, queries),
                           rounds=1, iterations=1)
    RESULTS["rcit_burst"] = {
        "n_rows": RCIT_ROWS,
        "n_queries": len(queries),
        "n_groups": len({(q.y, q.z) for q in queries}),
        "n_workers": N_WORKERS,
        "serial_seconds": serial,
        "process_seconds_warm_pool": pooled,
        "remote_seconds_warm_context": spooled,
        "process_speedup": serial / pooled,
        "remote_speedup": serial / spooled,
        "cpu_count": os.cpu_count(),
    }
    print(f"\nRCIT burst of {len(queries)} queries x {RCIT_ROWS} rows: "
          f"serial {serial:.2f} s, {N_WORKERS}-worker process pool "
          f"{pooled:.2f} s ({serial / pooled:.2f}x), spool workers "
          f"{spooled:.2f} s ({serial / spooled:.2f}x)")
