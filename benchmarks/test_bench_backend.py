"""Micro-benchmark for the pluggable column-backend layer.

Measures the PR-6 tentpole claim and records it as ``BENCH_backend.json``
(uploaded by the CI smoke job): with the working-set budget
(``REPRO_TABLE_RAM_CAP_MB``) configured *smaller than the dataset*, the
chunk-streamed discrete kernels complete on the memory-mapped backend —
columns and scratch codes on disk, one bounded window in RAM at a time —
with results **bitwise equal** to the in-memory backend and wall-clock
within 1.5x of it (the mmap acceptance bound; page-cache-warm mmap reads
are near-RAM speed, so the gap is the memmap open/scratch overhead).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.ci.base import CIQuery
from repro.ci.gtest import GTestCI
from repro.data.backend import resolve_chunk_rows
from repro.data.schema import Role
from repro.data.table import Table

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_backend.json"
RESULTS: dict = {}

N_ROWS = 200_000
N_CANDIDATES = 8
#: Working-set budget deliberately below the dataset size: every int64
#: candidate column alone is ~1.5 MiB, the codes pass holds ~24 B/row.
RAM_CAP_MB = "1"
BACKENDS = ("memory", "mmap")


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    yield
    if RESULTS:
        payload = {"benchmark": "backend", "format_version": 1,
                   "workload": {"n_rows": N_ROWS,
                                "n_candidates": N_CANDIDATES,
                                "ram_cap_mb": float(RAM_CAP_MB)},
                   "results": RESULTS}
        ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"\nwrote {ARTIFACT}")


def make_columns() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    columns = {
        "y": rng.integers(0, 2, size=N_ROWS),
        "z0": rng.integers(0, 3, size=N_ROWS),
        "z1": rng.integers(0, 2, size=N_ROWS),
    }
    for i in range(N_CANDIDATES):
        columns[f"f{i}"] = rng.integers(0, 5, size=N_ROWS)
    return columns


def run_bursts(columns, rounds=5) -> tuple[dict, dict]:
    """One fused same-(Y, Z) G-test burst per backend on fresh tables;
    returns each backend's verdicts and best-of-``rounds`` wall-clock of
    the warm burst.  Rounds alternate the backends, so a load spike on
    the host slows both sides alike instead of one side's whole sample."""
    tester = GTestCI()
    queries = [CIQuery.make(f"f{i}", "y", ("z0", "z1"))
               for i in range(N_CANDIDATES)]
    results, best = {}, {}
    for backend in BACKENDS:
        table = Table(columns, roles={"y": Role.TARGET}, backend=backend)
        results[backend] = [  # also warms the code caches
            (r.p_value, r.statistic)
            for r in tester.test_batch(table, queries)]
        best[backend] = float("inf")
    for _ in range(rounds):
        for backend in BACKENDS:
            fresh = Table(columns, roles={"y": Role.TARGET}, backend=backend)
            start = time.perf_counter()
            got = tester.test_batch(fresh, queries)
            best[backend] = min(best[backend], time.perf_counter() - start)
            assert [(r.p_value, r.statistic) for r in got] \
                == results[backend]
    return results, best


def test_streamed_mmap_matches_memory_within_bound(benchmark, monkeypatch):
    """The acceptance lock: dataset > RAM cap, chunked kernels engaged,
    mmap bitwise-equal to memory and within 1.5x wall-clock."""
    monkeypatch.delenv("REPRO_CI_CHUNK_ROWS", raising=False)
    monkeypatch.setenv("REPRO_TABLE_RAM_CAP_MB", RAM_CAP_MB)
    chunk = resolve_chunk_rows(N_ROWS, row_bytes=24)
    assert 0 < chunk < N_ROWS  # the streamed path is actually in play

    columns = make_columns()
    results, seconds = run_bursts(columns)
    memory_seconds, mmap_seconds = seconds["memory"], seconds["mmap"]

    assert results["mmap"] == results["memory"]  # bitwise, not approximately
    ratio = mmap_seconds / memory_seconds
    RESULTS["streamed_discrete_burst"] = {
        "chunk_rows": chunk,
        "memory_seconds": memory_seconds,
        "mmap_seconds": mmap_seconds,
        "mmap_over_memory": ratio,
        "bitwise_equal": True,
    }
    print(f"\nstreamed G-test burst ({N_ROWS} rows, cap {RAM_CAP_MB} MiB, "
          f"chunk {chunk}): memory {1e3 * memory_seconds:.1f} ms, "
          f"mmap {1e3 * mmap_seconds:.1f} ms ({ratio:.2f}x)")
    assert ratio <= 1.5

    mmap_table = Table(columns, roles={"y": Role.TARGET}, backend="mmap")
    tester = GTestCI()
    queries = [CIQuery.make(f"f{i}", "y", ("z0", "z1"))
               for i in range(N_CANDIDATES)]
    benchmark.pedantic(lambda: tester.test_batch(mmap_table, queries),
                       rounds=3, iterations=1)


def test_streamed_codes_bitwise_equal_unstreamed(benchmark, monkeypatch):
    """Informational: the chunked two-pass joint-codes kernel vs the
    single-pass layout, same backend — chunk-invariance at bench scale."""
    columns = make_columns()
    monkeypatch.delenv("REPRO_CI_CHUNK_ROWS", raising=False)
    monkeypatch.delenv("REPRO_TABLE_RAM_CAP_MB", raising=False)
    table = Table(columns, roles={"y": Role.TARGET})
    start = time.perf_counter()
    codes, levels = table.discrete_codes(("f0", "f1", "z0"))
    unstreamed_seconds = time.perf_counter() - start

    monkeypatch.setenv("REPRO_TABLE_RAM_CAP_MB", RAM_CAP_MB)
    streamed_table = Table(columns, roles={"y": Role.TARGET})
    start = time.perf_counter()
    streamed, streamed_levels = streamed_table.discrete_codes(
        ("f0", "f1", "z0"))
    streamed_seconds = time.perf_counter() - start

    assert streamed_levels == levels
    assert np.array_equal(np.array(streamed), np.array(codes))
    RESULTS["streamed_joint_codes"] = {
        "unstreamed_seconds": unstreamed_seconds,
        "streamed_seconds": streamed_seconds,
        "n_levels": levels,
    }
    print(f"\njoint codes ({N_ROWS} rows): single-pass "
          f"{1e3 * unstreamed_seconds:.1f} ms, streamed "
          f"{1e3 * streamed_seconds:.1f} ms, {levels} levels")

    benchmark.pedantic(
        lambda: Table(columns, roles={"y": Role.TARGET}).discrete_codes(
            ("f0", "f1", "z0")),
        rounds=3, iterations=1)
