"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup` (fresh
objects on every call, so the program's derived-state caches start cold,
as on a user's run) and runs one closed-loop pass over them in
:meth:`run`: one operation in flight, the next issued when the previous
returns.  ``run(inputs, cold=result)`` is the replay: the same pass again
over the same input objects right after the cold pass, with whatever
state the program keeps warm (table caches; on ``drift-store`` the
persistent CI store).  Every operation's output is checked after the
timed region; a raise or a failed check marks the operation failed and
the pass goes on.

Why these four (each stresses a different layer):

* ``table2`` -- Table 2 rows for the german, compas and adult stand-ins.
  Kernel-heavy: RCIT dense algebra and the table's derived state
  dominate, the selector control plane is idle.
* ``fig4b`` -- the Figure 4b count sweep at 5000 features with the
  d-separation oracle.  Control-plane bound: query construction and set
  bookkeeping, almost no kernel work, no data.
* ``drift`` -- a seeded G-test stream for ``OnlineSelector``: column
  revisions, row appends and feature arrivals.  The only workload that
  writes tables; it exercises delta reuse and prefix caches, which the
  batch workloads bypass.
* ``drift-store`` -- the same stream through a fresh persistent CI store,
  then a warm replay over that store.  Without it the store layer would
  be measured nowhere; the cold pass is write-bound, the replay read-only.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.ci.base import CITestLedger
from repro.ci.gtest import GTestCI
from repro.ci.oracle import OracleCI
from repro.ci.store import PersistentCICache
from repro.core.grpsel import GrpSel
from repro.core.online import OnlineSelector
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.seqsel import SeqSel
from repro.core.subset_search import MarginalThenFull
from repro.data.loaders import load_adult, load_compas, load_german
from repro.data.synthetic import planted_bias_problem
from repro.data.table import Table
from repro.experiments.table2 import expand_dataset, table2_row

clock = time.perf_counter


@dataclass
class PassResult:
    """What one pass did, and which of its operations failed."""

    seconds: float = 0.0
    steps_ms: list[float] = field(default_factory=list)
    ci_tests: int = 0
    #: Outputs every pass over the same seed must reproduce exactly
    #: (counts and verdicts), traced or not.
    digest: tuple = ()
    attempted: int = 0
    failed: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    #: Checks that call into the program, run by :meth:`finish` once
    #: timing and tracing are off.
    deferred: list = field(default_factory=list)

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; a raise marks it failed and returns None."""
        index = self.attempted
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.fail(index, f"op {index} raised {type(exc).__name__}: {exc}")
            return None

    def check(self, index: int, ok: bool, message: str) -> None:
        if not ok:
            self.fail(index, f"op {index}: {message}")

    def fail(self, index: int, message: str) -> None:
        self.failed.add(index)
        self.problems.append(message)

    def finish(self) -> "PassResult":
        for check in self.deferred:
            check()
        self.deferred.clear()
        return self


def _timed_ops(result: PassResult, ops) -> list:
    """Run zero-argument operations in a closed loop, timing each."""
    outputs = []
    for op in ops:
        began = clock()
        outputs.append(result.attempt(op))
        result.steps_ms.append((clock() - began) * 1e3)
    return outputs


# -- table2 -------------------------------------------------------------------

class Table2:
    """Table 2 rows at the ``benchmarks/conftest.py`` sizes."""

    name = "table2"
    replays = 1
    DATASETS = (("german", load_german, {"n_train": 3000, "n_test": 1200}),
                ("compas", load_compas, {"n_train": 3000, "n_test": 1000}),
                ("adult", load_adult, {"n_train": 6000, "n_test": 2000}))
    TINY = {"n_train": 400, "n_test": 200}
    N_DERIVED, TINY_DERIVED = 150, 30
    #: (SeqSel, GrpSel) test counts at seed 0, full size.
    SEED0_COUNTS = {"german": (222, 81), "compas": (191, 81),
                    "adult": (158, 49)}

    def setup(self, seed: int, tiny: bool):
        derived = self.TINY_DERIVED if tiny else self.N_DERIVED
        datasets = [(key, expand_dataset(
            loader(seed=seed, **(self.TINY if tiny else sizes)),
            max_new=derived)) for key, loader, sizes in self.DATASETS]
        return {"seed": seed, "tiny": tiny, "datasets": datasets}

    def run(self, inputs, workdir: str, cold: PassResult | None = None
            ) -> PassResult:
        result = PassResult()
        seed = inputs["seed"]
        start = clock()
        rows = _timed_ops(result, [
            (lambda d=dataset: table2_row(d, seed=seed, n_derived=0))
            for _, dataset in inputs["datasets"]])
        result.seconds = clock() - start
        digest = []
        for index, ((key, _), row) in enumerate(zip(inputs["datasets"],
                                                    rows)):
            if row is None:
                digest.append(None)
                continue
            counts = (row.seqsel_tests, row.grpsel_tests)
            digest.append(counts + (row.cmi_pred, row.cmi_target))
            result.ci_tests += sum(counts)
            if inputs["tiny"]:
                continue  # the paper's shape needs the 150-feature regime
            result.check(index, row.cmi_pred <= row.cmi_target + 1e-9,
                         f"{key}: CMI(S,Y'|A)={row.cmi_pred} above "
                         f"CMI(S,Y|A)={row.cmi_target}")
            result.check(index, row.grpsel_tests < row.seqsel_tests,
                         f"{key}: GrpSel ran {row.grpsel_tests} tests, "
                         f"SeqSel {row.seqsel_tests}")
            if seed == 0:
                result.check(index, counts == self.SEED0_COUNTS[key],
                             f"{key}: counts {counts} at seed 0, expected "
                             f"{self.SEED0_COUNTS[key]}")
        result.digest = tuple(digest)
        _check_replay(result, cold)
        return result


# -- fig4b --------------------------------------------------------------------

class Fig4b:
    """The Figure 4b count sweep at n=5000 features, oracle tester.

    Three of the figure's ten points (1%, 5% and 10% biased) keep one
    pass near six seconds; the selectors are called the way
    ``repro.experiments.test_counts.count_tests`` calls them.
    """

    name = "fig4b"
    replays = 1
    N_FEATURES, TINY_FEATURES = 5000, 200
    PERCENTAGES = (1, 5, 10)
    #: (SeqSel, GrpSel) test counts per point at seed 0, full size.
    SEED0_COUNTS = ((7575, 1428), (7875, 4823), (8250, 8169))

    def setup(self, seed: int, tiny: bool):
        n = self.TINY_FEATURES if tiny else self.N_FEATURES
        planted = [planted_bias_problem(n, max(1, int(round(pct / 100 * n))),
                                        n_samples=0, seed=seed)
                   for pct in self.PERCENTAGES]
        return {"seed": seed, "tiny": tiny, "planted": planted}

    @staticmethod
    def _point(planted, seed: int):
        oracle = OracleCI(planted.scm.dag)
        strategy = MarginalThenFull()
        seq_ledger = CITestLedger(oracle)
        seq = SeqSel(tester=seq_ledger,
                     subset_strategy=strategy).select(planted.problem)
        grp_ledger = CITestLedger(oracle)
        grp = GrpSel(tester=grp_ledger, subset_strategy=strategy,
                     seed=seed).select(planted.problem)
        return seq_ledger.n_tests, grp_ledger.n_tests, seq, grp

    def run(self, inputs, workdir: str, cold: PassResult | None = None
            ) -> PassResult:
        result = PassResult()
        seed = inputs["seed"]
        start = clock()
        points = _timed_ops(result, [
            (lambda p=planted: self._point(p, seed))
            for planted in inputs["planted"]])
        result.seconds = clock() - start
        digest = []
        for index, (planted, point) in enumerate(zip(inputs["planted"],
                                                     points)):
            if point is None:
                digest.append(None)
                continue
            seq_tests, grp_tests, seq, grp = point
            result.ci_tests += seq_tests + grp_tests
            selected = frozenset(seq.selected_set)
            digest.append((seq_tests, grp_tests, selected,
                           frozenset(grp.selected_set)))
            result.check(index, selected == grp.selected_set,
                         "SeqSel and GrpSel selected different sets")
            biased = set(planted.ground.biased)
            result.check(index, biased <= set(seq.rejected)
                         and biased <= set(grp.rejected),
                         "a planted biased feature was admitted")
            if seed == 0 and not inputs["tiny"]:
                expected = self.SEED0_COUNTS[index]
                result.check(index, (seq_tests, grp_tests) == expected,
                             f"counts {(seq_tests, grp_tests)} at seed 0, "
                             f"expected {expected}")
        result.digest = tuple(digest)
        _check_replay(result, cold)
        return result


# -- drift / drift-store --------------------------------------------------------

def _biased(rng, s: np.ndarray) -> np.ndarray:
    """A noisy copy of S: dependent on S, and on Y through S."""
    return np.where(rng.random(s.size) < 0.85, s,
                    rng.integers(0, 2, s.size)).astype(np.int64)


def _balanced(rng, s: np.ndarray) -> np.ndarray:
    """A binary feature with exactly balanced levels within each S value.

    Its G statistic against S is ~0 at every prefix of the stream, so its
    phase-1 verdict never sits near alpha and cannot flip with the seed.
    """
    out = np.empty(s.size, dtype=np.int64)
    for level in (0, 1):
        rows = np.flatnonzero(s == level)
        out[rows] = rng.permutation(np.arange(rows.size) % 2)
    return out


class Drift:
    """A drifting G-test stream for ``OnlineSelector``, no store.

    One arrival batch of 24 features over 50k rows (the
    ``BENCH_streaming`` scale), then 120 steps in a fixed cycle: four
    column revisions of a biased feature, one append of 250 rows to every
    column, one new-feature arrival.  Two of the 20 arrivals (and a sixth
    of the initial pool) are independent of S; the rest are noisy copies
    of S, and Y depends on S, so every verdict is far from alpha: the
    independent features enter C1 in phase 1, the biased ones are
    rejected in phase 2, at every step and every seed.  Revisions re-test
    one feature; appends and C1 growth re-test every decided feature.
    """

    name = "drift"
    replays = 1
    store = False
    N_ROWS, N_FEATURES, N_STEPS, TAIL_ROWS = 50_000, 24, 120, 250
    TINY = (3000, 24, 12, 50)
    CYCLE = ("revise", "revise", "revise", "append", "revise", "arrive")

    def setup(self, seed: int, tiny: bool):
        n_rows, n_features, n_steps, tail_rows = (
            self.TINY if tiny else
            (self.N_ROWS, self.N_FEATURES, self.N_STEPS, self.TAIL_ROWS))
        rng = np.random.default_rng([seed, 10])
        independent = {f"f{i}": i % 6 == 0 for i in range(n_features)}

        def rows(n: int) -> dict:
            s = rng.integers(0, 2, n)
            a = rng.integers(0, 3, n)
            y = (rng.random(n) < 0.15 + 0.45 * s + 0.2 * (a == 2))
            out = {"s": s, "a": a, "y": y.astype(np.int64)}
            for name, indep in independent.items():
                out[name] = _balanced(rng, s) if indep else _biased(rng, s)
            return out

        base = rows(n_rows)
        s_all = base["s"]
        pool = list(independent)
        biased = [name for name in pool if not independent[name]]
        steps = []
        for step in range(n_steps):
            kind = self.CYCLE[step % len(self.CYCLE)]
            if kind == "revise":
                name = biased[step % len(biased)]
                steps.append((kind, name, _biased(rng, s_all)))
            elif kind == "append":
                tail = rows(tail_rows)
                s_all = np.concatenate([s_all, tail["s"]])
                steps.append((kind, None, tail))
            else:
                name = f"f{len(independent)}"
                indep = len(independent) % 10 == 8
                independent[name] = indep
                if not indep:
                    biased.append(name)
                steps.append((kind, name, _balanced(rng, s_all) if indep
                              else _biased(rng, s_all)))
        return {"seed": seed, "tiny": tiny, "base": Table(base),
                "pool": pool, "steps": steps,
                "independent": dict(independent)}

    @staticmethod
    def _problem(table: Table, pool: list[str]):
        return FairFeatureSelectionProblem(
            table=table, sensitive=["s"], admissible=["a"],
            candidates=list(pool), target="y")

    def run(self, inputs, workdir: str, cold: PassResult | None = None
            ) -> PassResult:
        path = os.path.join(workdir, "ci-store.json")
        if self.store and cold is None and os.path.exists(path):
            os.remove(path)
        result = PassResult()
        state = {"table": inputs["base"], "pool": list(inputs["pool"])}

        def step(kind, name, values):
            if kind == "append":
                state["table"] = state["table"].with_appended_rows(values)
            else:
                state["table"] = state["table"].with_column(name, values)
            if kind == "arrive":
                state["pool"].append(name)
            return online.observe(self._problem(state["table"],
                                                state["pool"]),
                                  [name] if kind == "arrive" else [])

        start = clock()
        online = OnlineSelector(
            tester=GTestCI(), subset_strategy=MarginalThenFull(),
            cache=PersistentCICache(path) if self.store else False)
        snapshots = [result.attempt(
            online.observe, self._problem(state["table"], state["pool"]),
            list(inputs["pool"]))]
        # The arrival batch is not a step: only deltas are step samples.
        snapshots += _timed_ops(result, [
            (lambda k=kind, n=name, v=values: step(k, n, v))
            for kind, name, values in inputs["steps"]])
        result.seconds = clock() - start
        result.ci_tests = online.n_ci_tests

        independent = inputs["independent"]
        seen = list(inputs["pool"])
        for index, snap in enumerate(snapshots):
            if index:
                kind, name, _ = inputs["steps"][index - 1]
                if kind == "arrive":
                    seen.append(name)
            if snap is None:
                continue
            c1 = {f for f in seen if independent[f]}
            result.check(index, set(snap.c1) == c1 and not snap.c2
                         and set(snap.rejected) == set(seen) - c1,
                         "selection differs from the planted truth")
        final = online.current
        result.digest = (tuple((len(s.c1), len(s.c2), len(s.rejected),
                                s.n_ci_tests, s.cache_hits)
                               if s is not None else None
                               for s in snapshots),
                         frozenset(final.c1), frozenset(final.rejected))
        last = len(snapshots) - 1
        if cold is None:
            def from_scratch():
                scratch = SeqSel(tester=GTestCI(),
                                 subset_strategy=MarginalThenFull()).select(
                    self._problem(state["table"], state["pool"]))
                result.check(
                    last, scratch.selected_set == final.selected_set
                    and set(scratch.rejected) == set(final.rejected)
                    and dict(scratch.reasons) == dict(final.reasons),
                    "final state differs from a from-scratch SeqSel")
            result.deferred.append(from_scratch)
        elif self.store:
            # Served from the store: same end state, hits instead of tests.
            result.check(last, result.ci_tests == 0,
                         f"warm replay executed {result.ci_tests} tests")
            result.check(last, result.digest[1:] == cold.digest[1:],
                         "warm replay ended in another state")
        else:
            result.check(last, result.digest == cold.digest,
                         "replay output differs")
        return result


class DriftStore(Drift):
    """The drift stream through a fresh ``PersistentCICache``; its replay
    reopens the store and must execute no test."""

    name = "drift-store"
    store = True
    #: The read-only replay is ~50x shorter than the write-bound cold
    #: pass, so it repeats to give its median enough samples.
    replays = 5


def _check_replay(result: PassResult, cold: PassResult | None) -> None:
    """A replay over the same inputs must reproduce the cold pass."""
    if cold is None:
        return
    for index, (mine, theirs) in enumerate(zip(result.digest, cold.digest)):
        result.check(index, mine == theirs, "replay output differs")


WORKLOADS = {w.name: w for w in (Table2(), Fig4b(), Drift(), DriftStore())}
