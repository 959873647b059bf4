"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.causal.mechanisms import (
    BernoulliRoot,
    GaussianRoot,
    LinearGaussian,
    LogisticBinary,
    NoisyCopy,
)
from repro.causal.random_graphs import FairnessGraphSpec, fairness_scm
from repro.causal.scm import StructuralCausalModel
from repro.core.problem import FairFeatureSelectionProblem
from repro.data.schema import Role
from repro.data.table import Table


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def small_table():
    """A 100-row table with one of each role."""
    gen = np.random.default_rng(7)
    s = (gen.random(100) < 0.5).astype(int)
    a = (gen.random(100) < 0.3 + 0.4 * s).astype(int)
    x = gen.normal(size=100) + a
    y = (gen.random(100) < 1 / (1 + np.exp(-(a + x) / 2))).astype(int)
    return Table(
        {"s": s, "a": a, "x": x, "y": y},
        roles={"s": Role.SENSITIVE, "a": Role.ADMISSIBLE,
               "x": Role.CANDIDATE, "y": Role.TARGET},
    )


@pytest.fixture
def chain_scm():
    """S -> A -> M, S -> B, Y = f(A, M, B): B biased, M mediated."""
    mechanisms = {
        "S": BernoulliRoot(0.5),
        "A": LogisticBinary(["S"], [1.5], intercept=-0.75),
        "M": LinearGaussian(["A"], [1.2], noise_std=1.0),
        "B": NoisyCopy("S", flip=0.05),
        "N": GaussianRoot(),
        "Y": LogisticBinary(["A", "M", "B", "N"], [0.8, 0.7, 1.2, 0.5],
                            intercept=-1.0),
    }
    roles = {
        "S": Role.SENSITIVE, "A": Role.ADMISSIBLE, "Y": Role.TARGET,
        "M": Role.CANDIDATE, "B": Role.CANDIDATE, "N": Role.CANDIDATE,
    }
    return StructuralCausalModel(mechanisms, roles=roles)


@pytest.fixture
def chain_problem(chain_scm):
    table = chain_scm.sample(4000, seed=11)
    return FairFeatureSelectionProblem.from_table(table, name="chain")


@pytest.fixture
def planted_scm():
    spec = FairnessGraphSpec(n_features=12, n_biased=3, seed=3)
    return fairness_scm(spec)


@pytest.fixture
def start_method(request):
    """Set the global multiprocessing start method for one test and
    restore it afterwards.

    Pools start workers the interpreter's way, so this is how a test
    pins one method: ``spawn`` unless the test parametrizes
    ``start_method`` indirectly.
    """
    method = getattr(request, "param", "spawn")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    yield method
    multiprocessing.set_start_method(previous, force=True)
