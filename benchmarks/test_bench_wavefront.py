"""Micro-benchmark for the wavefront selection engine (PR 5).

Quantifies the two scheduling layers this PR added and records them as a
``BENCH_wavefront.json`` artifact (uploaded by the CI smoke job):

1. **Fused phase-1 sweep** — 60 candidates' phase-1 subset streams
   (RCIT, exhaustive search over two admissibles: four ranks each)
   advanced in rank-synchronized waves via
   :meth:`~repro.ci.base.CITestLedger.test_waves` versus the
   per-candidate sequential baseline (the pre-PR-5 selector loop).  Every
   wave is one same-``(S, A'_k)`` fusion group for the PR-4 RCIT kernel,
   so the sweep collapses from 240 lone GEMM-pipelines into 4 fused ones.
   **Acceptance: >= 3x**, with bitwise-identical verdicts and counts —
   asserted unconditionally (fusion is single-core arithmetic, not
   parallelism).
2. **Process-parallel experiment driver** — a 4-leg (2 datasets x 2
   selectors) suite through :func:`~repro.experiments.driver.run_suite`
   with worker processes versus inline.  Acceptance: >= 2x, asserted
   only where true parallelism is possible (>= 4 cores) and recorded
   everywhere; leg-outcome parity is asserted unconditionally.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import write_bench_artifact
from repro.ci.base import CITestLedger
from repro.ci.rcit import RCIT
from repro.core.subset_search import ExhaustiveSubsets
from repro.data.table import Table
from repro.experiments.driver import expand_legs, run_suite

RESULTS: dict = {}

N_ROWS = 1500
N_CANDIDATES = 60  # the acceptance workload: a 60-candidate phase-1 sweep
N_ADMISSIBLE = 2   # exhaustive -> 4 subset ranks per stream

DRIVER_LEGS = 4
DRIVER_N_TRAIN = 8000
DRIVER_JOBS = min(DRIVER_LEGS, os.cpu_count() or 1)

cpu_count = os.cpu_count() or 1


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    """Persist whatever the benchmarks in this module measured."""
    yield
    write_bench_artifact("wavefront",
                         {"n_rows": N_ROWS, "n_candidates": N_CANDIDATES,
                          "n_admissible": N_ADMISSIBLE,
                          "driver_legs": DRIVER_LEGS,
                          "driver_jobs": DRIVER_JOBS,
                          "start_method": multiprocessing.get_start_method()},
                         RESULTS)


@pytest.fixture(scope="module")
def sweep():
    """Phase-1-sweep workload: every candidate S-dependent through every
    conditioning subset, so all streams survive all four ranks and each
    wave stays 60 queries wide."""
    rng = np.random.default_rng(0)
    s = rng.normal(size=N_ROWS)
    data = {"s": s}
    admissible = []
    for j in range(N_ADMISSIBLE):
        name = f"a{j}"
        admissible.append(name)
        data[name] = rng.normal(size=N_ROWS)
    for i in range(N_CANDIDATES):
        data[f"f{i}"] = 0.8 * s + 0.5 * rng.normal(size=N_ROWS)
    table = Table(data).warm_cache()
    candidates = [f"f{i}" for i in range(N_CANDIDATES)]
    strategy = ExhaustiveSubsets()

    def streams():
        return strategy.phase1_streams(candidates, ["s"], admissible)

    return table, streams


def test_fused_phase1_sweep_speedup_and_parity(benchmark, sweep):
    """Acceptance: the wavefront sweep beats the per-candidate baseline
    >= 3x with bitwise-identical prefixes and identical counts."""
    table, streams = sweep

    def baseline():
        ledger = CITestLedger(RCIT(seed=0))
        return ledger, [ledger.test_batch(table, stream,
                                          stop_on_independent=True)
                        for stream in streams()]

    def wavefront():
        ledger = CITestLedger(RCIT(seed=0))
        return ledger, ledger.test_waves(table, streams())

    base_ledger, base_prefixes = baseline()
    wave_ledger, wave_prefixes = wavefront()
    assert [[(r.p_value, r.statistic, r.independent, r.query)
             for r in prefix] for prefix in wave_prefixes] == \
           [[(r.p_value, r.statistic, r.independent, r.query)
             for r in prefix] for prefix in base_prefixes]
    assert wave_ledger.n_tests == base_ledger.n_tests
    assert sorted((e.query.x, e.query.y, e.query.z)
                  for e in wave_ledger.entries) == \
           sorted((e.query.x, e.query.y, e.query.z)
                  for e in base_ledger.entries)

    base_seconds = min(time_once(baseline) for _ in range(3))
    wave_seconds = min(time_once(wavefront) for _ in range(3))
    speedup = base_seconds / wave_seconds
    RESULTS["fused_phase1_sweep"] = {
        "n_tests": wave_ledger.n_tests,
        "per_candidate_seconds": base_seconds,
        "wavefront_seconds": wave_seconds,
        "speedup": speedup,
    }
    print(f"\nphase-1 sweep of {N_CANDIDATES} candidates x "
          f"{wave_ledger.n_tests // N_CANDIDATES} ranks at n={N_ROWS}: "
          f"per-candidate {1e3 * base_seconds:.0f} ms, wavefront "
          f"{1e3 * wave_seconds:.0f} ms, speedup {speedup:.1f}x")
    assert speedup >= 3.0, (
        f"wavefront fusion below the 3x acceptance bar: {speedup:.2f}x")

    benchmark.pedantic(lambda: wavefront(), rounds=3, iterations=1)


def time_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def suite_legs():
    return expand_legs(["german", "compas"],
                       algorithms=["grpsel", "seqsel"], tester="rcit",
                       n_train=DRIVER_N_TRAIN, n_test=200)


def outcome_key(outcome):
    return (outcome.leg.label, outcome.selection.n_ci_tests,
            sorted(outcome.selection.selected_set),
            outcome.report.accuracy)


def test_suite_driver_speedup_and_parity(benchmark):
    """Acceptance: DRIVER_JOBS workers beat the inline loop on the 4-leg
    suite (>= 2x where >= 4 cores allow it), with identical outcomes."""
    legs = suite_legs()
    assert len(legs) == DRIVER_LEGS

    inline_result = run_suite(legs, jobs=1)
    parallel_result = run_suite(legs, jobs=DRIVER_JOBS)
    assert [outcome_key(o) for o in parallel_result.outcomes] == \
           [outcome_key(o) for o in inline_result.outcomes]

    inline_seconds = min(run_suite(legs, jobs=1).seconds for _ in range(2))
    parallel_seconds = min(run_suite(legs, jobs=DRIVER_JOBS).seconds
                           for _ in range(2))
    speedup = inline_seconds / parallel_seconds
    RESULTS["suite_driver"] = {
        "legs": [leg.label for leg in legs],
        "inline_seconds": inline_seconds,
        "parallel_seconds": parallel_seconds,
        "jobs": DRIVER_JOBS,
        "speedup": speedup,
        "asserted_2x": cpu_count >= 4,
    }
    print(f"\nsuite driver, {DRIVER_LEGS} legs: inline "
          f"{inline_seconds:.2f} s, {DRIVER_JOBS} workers "
          f"{parallel_seconds:.2f} s, speedup {speedup:.2f}x")
    if cpu_count >= 4:
        assert speedup >= 2.0, (
            f"driver below the 2x acceptance bar on {cpu_count} cores: "
            f"{speedup:.2f}x")

    benchmark.pedantic(
        lambda: run_suite(legs, jobs=DRIVER_JOBS),
        rounds=2, iterations=1)
