"""Wave-width capping: bounded peak memory, provably unchanged results.

The engine splits over-wide waves into consecutive ``test_batch``
sub-batches sized by a rows x queries cell budget
(:func:`repro.core.engine.wave_width_cap`).  These tests lock the two
halves of that contract: the budget arithmetic (env override, RAM-cap
derivation) and the invariance — any ``max_wave`` yields bitwise the
verdicts, ``n_tests`` and ``cache_hits`` of the uncapped schedule.
"""

import numpy as np
import pytest

from repro.ci.base import CIQuery, CITestLedger
from repro.ci.executor import SerialExecutor
from repro.ci.gtest import GTestCI
from repro.core.engine import ENV_WAVE_CELLS, wave_width_cap
from repro.core.grpsel import GrpSel
from repro.core.seqsel import SeqSel
from repro.core.problem import FairFeatureSelectionProblem
from repro.data.schema import Role
from repro.data.table import Table


def build_problem(seed=0, n_rows=80, n_features=6):
    rng = np.random.default_rng(seed)
    columns = {
        "s": rng.integers(0, 2, size=n_rows),
        "y": rng.integers(0, 2, size=n_rows),
        "a0": rng.integers(0, 2, size=n_rows),
        "a1": rng.integers(0, 3, size=n_rows),
    }
    for i in range(n_features):
        columns[f"f{i}"] = rng.integers(0, 3, size=n_rows)
    table = Table(columns, roles={"s": Role.SENSITIVE, "y": Role.TARGET})
    return FairFeatureSelectionProblem(
        table, sensitive=["s"], admissible=["a0", "a1"],
        candidates=[f"f{i}" for i in range(n_features)], target="y")


def biased_problem(seed=5, n_rows=400, n_features=10):
    """Every candidate is a noisy copy of S, so phase 1 admits none of
    them and phase 2 receives the whole pool."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=n_rows)
    columns = {
        "s": s,
        "y": rng.integers(0, 2, size=n_rows),
        "a0": rng.integers(0, 2, size=n_rows),
        "a1": rng.integers(0, 3, size=n_rows),
    }
    for i in range(n_features):
        columns[f"f{i}"] = np.where(rng.random(n_rows) < 0.1, 1 - s, s)
    table = Table(columns, roles={"s": Role.SENSITIVE, "y": Role.TARGET})
    return FairFeatureSelectionProblem(
        table, sensitive=["s"], admissible=["a0", "a1"],
        candidates=[f"f{i}" for i in range(n_features)], target="y")


class RecordingExecutor(SerialExecutor):
    """Serial execution that records the width of every submitted batch."""

    def __init__(self):
        self.widths = []

    def run(self, tester, table, queries):
        self.widths.append(len(queries))
        return super().run(tester, table, queries)


def streams_for(problem):
    """Simple rank streams: every candidate tests against S with growing
    conditioning sets — the phase-1 shape, several ranks deep."""
    subsets = [(), ("a0",), ("a1",), ("a0", "a1")]
    return [[CIQuery.make(name, "s", z) for z in subsets]
            for name in problem.candidates]


class TestBudgetArithmetic:
    def test_env_cells_override(self, monkeypatch):
        monkeypatch.setenv(ENV_WAVE_CELLS, "1000")
        assert wave_width_cap(100) == 10
        assert wave_width_cap(10_000) == 1  # floor at one query per batch

    def test_default_budget_is_wide_for_small_tables(self, monkeypatch):
        monkeypatch.delenv(ENV_WAVE_CELLS, raising=False)
        # 512 MiB / 16 B / 1000 rows >> any plausible candidate pool.
        assert wave_width_cap(1000) > 10_000
        # The default is 2**25 cells: 512 MiB at 16 bytes per cell.
        assert wave_width_cap(1 << 16) == 512

    def test_invalid_env_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(ENV_WAVE_CELLS, "lots")
        with pytest.raises(ValueError):
            wave_width_cap(10)
        monkeypatch.setenv(ENV_WAVE_CELLS, "0")
        with pytest.raises(ValueError):
            wave_width_cap(10)


class TestCappingInvariance:
    def snapshot(self, problem, max_wave, cache):
        ledger = CITestLedger(GTestCI(), cache=cache)
        outcomes = ledger.test_waves(problem.table, streams_for(problem),
                                     max_wave=max_wave)
        return ([[(r.p_value, r.statistic, r.independent) for r in prefix]
                 for prefix in outcomes],
                ledger.n_tests, ledger.cache_hits)

    @pytest.mark.parametrize("cache", [False, True])
    def test_any_cap_matches_uncapped(self, cache):
        problem = build_problem()
        baseline = self.snapshot(problem, None, cache)
        for max_wave in (1, 2, 3, 100):
            assert self.snapshot(problem, max_wave, cache) == baseline

    def test_selector_counts_invariant_under_tiny_budget(self, monkeypatch):
        problem = build_problem(seed=3)
        monkeypatch.delenv(ENV_WAVE_CELLS, raising=False)
        want = SeqSel(tester=GTestCI()).select(problem)
        # A one-query-per-batch budget: maximal splitting.
        monkeypatch.setenv(ENV_WAVE_CELLS, "1")
        got = SeqSel(tester=GTestCI()).select(problem)
        assert got.selected == want.selected
        assert got.rejected == want.rejected
        assert got.n_ci_tests == want.n_ci_tests

    @pytest.mark.parametrize("selector", [SeqSel, GrpSel])
    def test_selectors_never_submit_past_the_cap(self, selector,
                                                 monkeypatch):
        """Every selector phase, phase 2 included, splits its batches by
        the wave-width cap, with verdicts and counts unchanged."""
        problem = biased_problem()
        cap = 2

        def run():
            executor = RecordingExecutor()
            result = selector(tester=GTestCI(),
                              executor=executor).select(problem)
            return executor.widths, (result.c1, result.c2, result.rejected,
                                     result.reasons, result.n_ci_tests,
                                     result.cache_hits)

        monkeypatch.delenv(ENV_WAVE_CELLS, raising=False)
        wide, want = run()
        c1, c2, rejected = want[:3]
        assert not c1 and len(c2) + len(rejected) > cap  # wide phase 2
        assert max(wide) > cap
        monkeypatch.setenv(ENV_WAVE_CELLS, str(cap * problem.table.n_rows))
        assert wave_width_cap(problem.table.n_rows) == cap
        capped, got = run()
        assert max(capped) <= cap
        assert got == want
