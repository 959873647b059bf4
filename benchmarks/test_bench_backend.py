"""Micro-benchmark for the chunk-streamed discrete kernels.

Records ``BENCH_backend.json`` (uploaded by the CI smoke job): with the
working-set budget (``REPRO_TABLE_RAM_CAP_MB``) configured *smaller than
the dataset*, the chunked two-pass joint-codes kernel returns codes
**bitwise equal** to the single-pass kernel, and the file records both
wall-clocks.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import write_bench_artifact
from repro.data.backend import resolve_chunk_rows
from repro.data.schema import Role
from repro.data.table import Table

RESULTS: dict = {}

N_ROWS = 200_000
N_CANDIDATES = 8
#: Working-set budget deliberately below the dataset size: every int64
#: candidate column alone is ~1.5 MiB, the codes pass holds ~24 B/row.
RAM_CAP_MB = "1"


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    """Persist whatever the benchmarks in this module measured."""
    yield
    write_bench_artifact("backend",
                         {"n_rows": N_ROWS, "n_candidates": N_CANDIDATES,
                          "ram_cap_mb": float(RAM_CAP_MB)},
                         RESULTS)


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


def test_streamed_codes_bitwise_equal_unstreamed(benchmark, monkeypatch):
    """Informational: the chunked two-pass joint-codes kernel vs the
    single-pass layout — chunk-invariance at bench scale."""
    columns = make_columns()
    monkeypatch.delenv("REPRO_CI_CHUNK_ROWS", raising=False)
    monkeypatch.delenv("REPRO_TABLE_RAM_CAP_MB", raising=False)
    table = Table(columns, roles={"y": Role.TARGET})
    start = time.perf_counter()
    codes, levels = table.discrete_codes(("f0", "f1", "z0"))
    unstreamed_seconds = time.perf_counter() - start

    monkeypatch.setenv("REPRO_TABLE_RAM_CAP_MB", RAM_CAP_MB)
    assert 0 < resolve_chunk_rows(N_ROWS, row_bytes=24) < N_ROWS
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
