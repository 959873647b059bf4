"""Shared benchmark fixtures.

Benchmarks double as the paper's experiment regenerators: each one runs the
experiment once under ``benchmark.pedantic`` (timing it) and prints the
rows/series the paper reports, so ``pytest benchmarks/ --benchmark-only -s``
reproduces every table and figure.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.data.loaders import load_adult, load_compas, load_german, load_meps

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def german():
    return load_german(seed=0)


@pytest.fixture(scope="session")
def german_large():
    return load_german(seed=0, n_train=3000, n_test=1200)


@pytest.fixture(scope="session")
def compas():
    return load_compas(seed=0, n_train=3000, n_test=1000)


@pytest.fixture(scope="session")
def adult():
    return load_adult(seed=0, n_train=6000, n_test=2000)


@pytest.fixture(scope="session")
def meps1():
    return load_meps(1, seed=0, n_train=3000, n_test=1200)


@pytest.fixture(scope="session")
def meps2():
    return load_meps(2, seed=0, n_train=3000, n_test=1200)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def interleaved_medians(*fns, rounds: int = 5) -> list[float]:
    """Median wall seconds of each of ``fns``, timed in interleaved rounds.

    Every round runs each function once, rotating which one goes first,
    so with a slow and a fast side each pair alternates its order.  A
    drift in the machine's speed (other load, clock scaling) then lands
    on both sides alike instead of on whichever side's block of runs it
    overlaps.  A speedup gate takes its ratio from the medians this
    returns, one per function, in argument order.
    """
    samples: list[list[float]] = [[] for _ in fns]
    for r in range(rounds):
        for k in range(len(fns)):
            i = (r + k) % len(fns)
            start = time.perf_counter()
            fns[i]()
            samples[i].append(time.perf_counter() - start)
    return [float(np.median(side)) for side in samples]


def write_bench_artifact(name: str, workload: dict, results: dict) -> None:
    """Write ``BENCH_<name>.json`` at the repo root; no-op without results.

    Every artifact carries the same ``host`` block, so a recorded number
    always names the machine and library versions it was taken on.
    """
    if not results:
        return
    payload = {"benchmark": name, "format_version": 1,
               "host": {"cpu_count": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__,
                        "scipy": scipy.__version__,
                        "machine": platform.machine()},
               "workload": workload, "results": results}
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {path}")
