"""Benchmark for incremental streaming selection under drift.

Measures the streaming tentpole claims and records them as
``BENCH_streaming.json`` (uploaded by the CI bench job):

* **selection under drift** — an :class:`OnlineSelector` consuming a
  drifting stream (one batch of arrivals, then repeated localized column
  revisions) is >=5x faster than re-running SeqSel from scratch at every
  step, with identical final selections and verdict reasons: per-column
  delta reuse re-executes only the one revised feature's query per step,
  while from-scratch re-selection pays the whole pool every time;
* **warm store** — replaying the identical stream against the persistent
  CI store executes zero tests;
* **prefix-cached kernels** — refreshing the derived state of a table
  grown by appended rows (fingerprint, codes, standardized block) beats
  a cold rebuild with bitwise-equal observables; the hash reuse itself
  is O(tail).
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import write_bench_artifact
from repro.ci.gtest import GTestCI
from repro.ci.store import PersistentCICache
from repro.core.online import OnlineSelector
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.seqsel import SeqSel
from repro.core.subset_search import MarginalThenFull
from repro.data.table import Table

RESULTS: dict = {}

N_ROWS = 50_000
N_FEATURES = 24
N_DRIFT_STEPS = 25


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    """Persist whatever the benchmarks in this module measured."""
    yield
    write_bench_artifact("streaming",
                         {"n_rows": N_ROWS, "n_features": N_FEATURES,
                          "n_drift_steps": N_DRIFT_STEPS},
                         RESULTS)


def biased_column(rng, s, n):
    return np.where(rng.random(n) < 0.8, s, rng.integers(0, 2, n))


def make_problem(n=N_ROWS, seed=0):
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, n)
    a = rng.integers(0, 3, n)
    y = (rng.random(n) < 0.35 + 0.2 * (a > 1)).astype(int)
    data = {"s": s, "a": a, "y": y}
    for i in range(N_FEATURES):
        # Two thirds of the pool is biased: under drift these are the
        # features whose verdicts from-scratch re-selection keeps paying
        # for, while delta reuse retries exactly one per step.
        if i % 3 != 0:
            data[f"f{i}"] = biased_column(rng, s, n)
        else:
            data[f"f{i}"] = rng.integers(0, 3, n)
    return FairFeatureSelectionProblem(
        table=Table(data), sensitive=["s"], admissible=["a"], target="y",
        candidates=[f"f{i}" for i in range(N_FEATURES)])


def drift_stream():
    """One arrivals batch, then drift-only steps: each revises exactly
    one biased feature's own column (seeded, so every caller sees the
    byte-identical stream)."""
    problem = make_problem()
    pool = list(problem.candidates)
    yield problem, pool
    biased = [f for f in pool if int(f[1:]) % 3 != 0]
    for step in range(N_DRIFT_STEPS):
        feature = biased[step % len(biased)]
        rng = np.random.default_rng(1000 + step)
        table = problem.table.with_column(
            feature, biased_column(rng, problem.table["s"],
                                   problem.table.n_rows))
        problem = FairFeatureSelectionProblem(
            table=table, sensitive=["s"], admissible=["a"], target="y",
            candidates=pool)
        yield problem, []


def run_incremental(cache=False):
    online = OnlineSelector(tester=GTestCI(),
                            subset_strategy=MarginalThenFull(),
                            cache=cache)
    start = time.perf_counter()
    for result in online.stream(drift_stream()):
        pass
    return online, time.perf_counter() - start


def run_from_scratch():
    """The drift baseline: re-select the full seen pool at every step."""
    last = None
    n_tests = 0
    start = time.perf_counter()
    for problem, _ in drift_stream():
        last = SeqSel(tester=GTestCI(),
                      subset_strategy=MarginalThenFull()).select(problem)
        n_tests += last.n_ci_tests
    return last, n_tests, time.perf_counter() - start


def test_incremental_beats_from_scratch_under_drift(benchmark, tmp_path):
    """The acceptance lock: >=5x wall-clock over from-scratch
    re-selection, bitwise-equal final admissible set and verdicts, and a
    warm store replay that executes nothing."""
    online, incremental_seconds = run_incremental()
    scratch, scratch_tests, scratch_seconds = run_from_scratch()

    final = online.current
    assert final.selected_set == scratch.selected_set
    assert set(final.rejected) == set(scratch.rejected)
    assert dict(final.reasons) == dict(scratch.reasons)

    speedup = scratch_seconds / incremental_seconds
    print(f"\ndrift stream ({N_ROWS} rows, {N_FEATURES} features, "
          f"{N_DRIFT_STEPS} drift steps): incremental "
          f"{incremental_seconds:.2f}s / {final.n_ci_tests} tests "
          f"(+{online.delta_hits} reused verdicts), from-scratch "
          f"{scratch_seconds:.2f}s / {scratch_tests} tests "
          f"-> {speedup:.1f}x")

    path = tmp_path / "cache.json"
    cold, cold_seconds = run_incremental(cache=PersistentCICache(path))
    warm, warm_seconds = run_incremental(cache=PersistentCICache(path))
    assert warm.n_ci_tests == 0
    assert warm.current.selected_set == cold.current.selected_set
    print(f"store replay: cold {cold_seconds:.2f}s / "
          f"{cold.n_ci_tests} tests, warm {warm_seconds:.2f}s / 0 tests")

    RESULTS["selection_under_drift"] = {
        "incremental_seconds": incremental_seconds,
        "incremental_tests": final.n_ci_tests,
        "reused_verdicts": online.delta_hits,
        "from_scratch_seconds": scratch_seconds,
        "from_scratch_tests": scratch_tests,
        "speedup": speedup,
        "cold_store_seconds": cold_seconds,
        "warm_store_seconds": warm_seconds,
        "warm_store_tests": 0,
        "final_state_equal": True,
    }
    assert speedup >= 5.0

    benchmark.pedantic(lambda: run_incremental(), rounds=1, iterations=1)


def test_prefix_cached_kernels_beat_cold_rebuild(benchmark):
    """Growing a warmed table and refreshing its derived state
    (fingerprint, per-column codes, standardized block) beats a cold
    rebuild over the concatenated values — bitwise-equal observables.

    The refresh necessarily rewrites full-length derived arrays, so the
    ceiling is the compute-over-memcpy ratio (the prefix copy is a
    memcpy, the cold path recomputes); the lock is a conservative 2x.
    The O(tail) hash reuse itself shows up as the near-zero
    ``fingerprint_seconds`` component."""
    n, tail_rows = 500_000, 5_000
    rng = np.random.default_rng(3)
    data = {f"d{i}": rng.integers(0, 50, size=n) for i in range(4)}
    data.update({f"x{i}": rng.normal(size=n) for i in range(4)})
    discrete = [f"d{i}" for i in range(4)]
    floats = [f"x{i}" for i in range(4)]

    def refresh(table):
        fp = table.fingerprint
        codes = [table.discrete_codes(name) for name in discrete]
        std = table.standardized_block(floats)
        return fp, codes, std

    parent = Table(data)
    refresh(parent)  # warm the incremental caches

    tail = {f"d{i}": rng.integers(0, 50, size=tail_rows) for i in range(4)}
    tail.update({f"x{i}": rng.normal(size=tail_rows) for i in range(4)})
    start = time.perf_counter()
    child = parent.with_appended_rows(tail)
    inc_fp, inc_codes, inc_std = refresh(child)
    incremental_seconds = time.perf_counter() - start
    start = time.perf_counter()
    fp_alone = child.fingerprint  # memoised: the O(tail) reuse is paid
    fingerprint_seconds = time.perf_counter() - start

    cold_data = {name: np.array(child[name]) for name in child.columns}
    start = time.perf_counter()
    cold = Table(cold_data, schema=child.schema)
    cold_fp, cold_codes, cold_std = refresh(cold)
    cold_seconds = time.perf_counter() - start

    assert inc_fp == cold_fp == fp_alone
    for (codes, levels), (ccodes, clevels) in zip(inc_codes, cold_codes):
        assert levels == clevels
        assert np.array_equal(np.asarray(codes), np.asarray(ccodes))
    assert np.array_equal(np.asarray(inc_std), np.asarray(cold_std))

    speedup = cold_seconds / incremental_seconds
    print(f"\nprefix-cached refresh ({n} rows + {tail_rows} appended, "
          f"8 columns): incremental {1e3 * incremental_seconds:.1f} ms, "
          f"cold {1e3 * cold_seconds:.1f} ms -> {speedup:.1f}x")
    RESULTS["prefix_cached_kernels"] = {
        "n_rows": n, "tail_rows": tail_rows,
        "incremental_seconds": incremental_seconds,
        "cold_seconds": cold_seconds,
        "fingerprint_seconds": fingerprint_seconds,
        "speedup": speedup,
        "bitwise_equal": True,
    }
    assert speedup >= 2.0

    benchmark.pedantic(
        lambda: parent.with_appended_rows(tail).fingerprint,
        rounds=3, iterations=1)
