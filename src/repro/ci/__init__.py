"""Conditional-independence testing substrate."""

from repro import env
from repro.ci.base import CIQuery, CIResult, CITestLedger, CITester, LedgerEntry
from repro.ci.adaptive import AdaptiveCI
from repro.ci.cmi import discrete_cmi
from repro.ci.executor import (BatchExecutor, ProcessExecutor,
                               SerialExecutor, default_executor,
                               executor_by_name)
from repro.ci.fisher_z import FisherZCI, partial_correlation
from repro.ci.gtest import ChiSquaredCI, GTestCI
from repro.ci.kcit import KCIT
from repro.ci.oracle import GraphoidOracleBackend, OracleCI
from repro.ci.permutation import PermutationCI
from repro.ci.rcit import RCIT, RIT, median_bandwidth, random_fourier_features
from repro.ci.store import ExperimentStore, PersistentCICache
from repro.rng import SeedLike

#: Environment override for the tester family selectors construct when
#: none is passed explicitly (see :func:`default_tester`).
ENV_TESTER = env.CI_TESTER.name


def default_tester(alpha: float = 0.01, seed: SeedLike = 0,
                   name: str | None = None) -> CITester:
    """The tester a selector constructs when none is passed explicitly.

    Defaults to the paper's setup — :class:`RCIT` — and honours the
    ``REPRO_CI_TESTER`` environment variable (``rcit`` / ``gtest`` /
    ``chi2`` / ``fisher-z`` / ``kcit`` / ``adaptive``), which is how the
    CI matrix pins a whole run onto one backend — e.g. the fused
    continuous path under process sharding — without touching call sites.
    An explicit ``name`` (the CLI's ``--tester`` flag, the suite driver's
    leg spec) overrides the environment.  Testers without a seed
    parameter ignore ``seed``.
    """
    if name is None:
        name = env.CI_TESTER.read().lower()
    else:
        name = name.strip().lower()
    if name == "rcit":
        return RCIT(alpha=alpha, seed=seed)
    if name == "gtest":
        return GTestCI(alpha=alpha)
    if name == "chi2":
        return ChiSquaredCI(alpha=alpha)
    if name == "fisher-z":
        return FisherZCI(alpha=alpha)
    if name == "kcit":
        return KCIT(alpha=alpha, seed=seed)
    if name == "adaptive":
        return AdaptiveCI(alpha=alpha, seed=seed)
    raise ValueError(
        f"unknown tester {name!r} (explicit or via {ENV_TESTER}); choose "
        f"from rcit/gtest/chi2/fisher-z/kcit/adaptive")


__all__ = [
    "CIQuery",
    "CIResult",
    "CITestLedger",
    "CITester",
    "LedgerEntry",
    "AdaptiveCI",
    "BatchExecutor",
    "ProcessExecutor",
    "SerialExecutor",
    "default_executor",
    "default_tester",
    "ENV_TESTER",
    "executor_by_name",
    "ExperimentStore",
    "PersistentCICache",
    "discrete_cmi",
    "FisherZCI",
    "partial_correlation",
    "ChiSquaredCI",
    "GTestCI",
    "GraphoidOracleBackend",
    "KCIT",
    "OracleCI",
    "PermutationCI",
    "RCIT",
    "RIT",
    "median_bandwidth",
    "random_fourier_features",
]
