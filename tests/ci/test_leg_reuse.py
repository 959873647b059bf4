"""RCIT's conditioned leg is built once per ledger run, at identical bits.

A :class:`~repro.ci.base.CITestLedger` holds one
:class:`~repro.ci.base.LegSlot`; RCIT keeps its last conditioned
``(Y, Z)`` leg there (Z features, ridge projector, Y residuals and their
eigenvalues) and serves it to the run's next group under an equal key.
This file locks both sides of that contract:

* bits: every verdict of a random batch sequence through one ledger —
  repeating, alternating and introducing ``(Y, Z)`` pairs over two
  tables — equals a fresh tester's lone ``test``, under the serial
  executor and under process pools started by ``spawn`` and ``fork``;
  and so does every ledger entry of GrpSel and SeqSel on a
  Cognito-expanded german past RCIT's 500-row bandwidth subsample;
* scope: raw tester calls never share a leg, one ledger shares it, the
  slot holds at most one leg, and pool workers never see the slot.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ci import rcit as rcit_module
from repro.ci.adaptive import AdaptiveCI
from repro.ci.base import CIQuery, CITestLedger, CITester, running_leg_slot
from repro.ci.executor import ProcessExecutor, SerialExecutor
from repro.ci.rcit import RCIT
from repro.core.grpsel import GrpSel
from repro.core.seqsel import SeqSel
from repro.core.subset_search import MarginalThenFull
from repro.data.loaders import load_german
from repro.data.table import Table
from repro.experiments.table2 import expand_dataset

Y_CHOICES = [("y",), ("w",), ("w", "y")]
Z_CHOICES = [(), ("z1",), ("z2",), ("z1", "z2"), ("z3",)]
X_CHOICES = [("f0",), ("f1",), ("f2",), ("f3",), ("f0", "f1"), ("f2", "f3")]


def build_table(seed: int, n_rows: int) -> Table:
    """Continuous columns under fixed names: two seeds give two tables
    whose ``(Y, Z)`` names coincide while their contents differ."""
    rng = np.random.default_rng(seed)
    z1, z2, z3 = rng.normal(size=(3, n_rows))
    data = {"z1": z1, "z2": z2, "z3": z3,
            "y": np.sin(z1) + 0.5 * rng.normal(size=n_rows),
            "w": z2 * z3 + 0.5 * rng.normal(size=n_rows)}
    for i in range(4):
        data[f"f{i}"] = (0.8 * (z1 if i % 2 else z2)
                         + rng.normal(size=n_rows))
    return Table(data)


@st.composite
def runs(draw):
    """Two tables and a sequence of batches over a small pool of
    ``(table, Y, Z)`` keys: batches repeat a key, alternate between keys
    and introduce new ones, and a batch may mix two keys."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    n_rows = draw(st.integers(min_value=40, max_value=120))
    tables = (build_table(seed, n_rows), build_table(seed + 1, n_rows))
    keys = draw(st.lists(
        st.tuples(st.sampled_from([0, 1]), st.sampled_from(Y_CHOICES),
                  st.sampled_from(Z_CHOICES)),
        min_size=1, max_size=4))
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        table_index = draw(st.sampled_from([0, 1]))
        queries = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            _, y, z = draw(st.sampled_from(keys))
            queries.append(CIQuery.make(draw(st.sampled_from(X_CHOICES)),
                                        y, z))
        batches.append((table_index, queries))
    return draw(st.integers(0, 3)), tables, batches


def assert_run_matches_lone_tests(ledger, tester_seed, tables, batches):
    """Each result of each batch equals a fresh tester's lone ``test``
    (``==`` on the p-value and on the statistic)."""
    expected: dict = {}
    for table_index, queries in batches:
        table = tables[table_index]
        for query, result in zip(queries, ledger.test_batch(table, queries)):
            key = (table_index, query)
            if key not in expected:
                expected[key] = RCIT(seed=tester_seed).test(
                    table, query.x, query.y, query.z)
            assert result.p_value == expected[key].p_value, query
            assert result.statistic == expected[key].statistic, query


class TestRunBitsEqualLoneTests:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=runs())
    def test_serial(self, run):
        tester_seed, tables, batches = run
        ledger = CITestLedger(RCIT(seed=tester_seed),
                              executor=SerialExecutor())
        assert_run_matches_lone_tests(ledger, tester_seed, tables, batches)

    @pytest.mark.parametrize("start_method,examples",
                             [("fork", 8), ("spawn", 2)],
                             indirect=["start_method"])
    def test_process_pool(self, start_method, examples):
        # min_batch=3: one- and two-query batches run in the dispatching
        # process (where the slot is visible), longer ones in the pool.
        with ProcessExecutor(n_workers=2, min_batch=3) as executor:
            def check(run):
                tester_seed, tables, batches = run
                ledger = CITestLedger(RCIT(seed=tester_seed),
                                      executor=executor)
                assert_run_matches_lone_tests(ledger, tester_seed, tables,
                                              batches)

            # A few draws may hold only one- and two-query batches, so a
            # fixed batch of three distinct queries makes sure the run
            # crosses into a pool of this start method.
            tables = (build_table(0, 60), build_table(1, 60))
            check((0, tables, [(0, [CIQuery.make(x, ("y",), ("z1",))
                                    for x in X_CHOICES[:3]])]))
            assert executor._pool is not None

            @settings(max_examples=examples, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])
            @given(run=runs())
            def check_drawn(run):
                check(run)

            check_drawn()


class TestTable2ShapedRun:
    """GrpSel and SeqSel on a Cognito-expanded german at 600 rows, so
    every bandwidth past the first 500 rows comes from the subsample:
    every ledger entry equals a fresh ``AdaptiveCI(seed=0)`` lone test."""

    @pytest.fixture(scope="class")
    def problem(self):
        dataset = expand_dataset(load_german(seed=0, n_train=600,
                                             n_test=100), max_new=150)
        return dataset.problem()

    @pytest.mark.parametrize("make", [
        lambda ledger: GrpSel(tester=ledger,
                              subset_strategy=MarginalThenFull(), seed=0),
        lambda ledger: SeqSel(tester=ledger,
                              subset_strategy=MarginalThenFull()),
    ], ids=["grpsel", "seqsel"])
    def test_every_entry_equals_a_lone_test(self, problem, make):
        assert problem.table.n_rows > 500
        ledger = CITestLedger(AdaptiveCI(seed=0))
        make(ledger).select(problem)
        conditioned = [entry for entry in ledger.entries
                       if entry.query.z
                       and entry.result.method == "adaptive->rcit"]
        assert conditioned, "the run must reach conditioned RCIT groups"
        for entry in ledger.entries:
            query = entry.query
            lone = AdaptiveCI(seed=0).test(problem.table, query.x, query.y,
                                           query.z)
            assert entry.result.p_value == lone.p_value, query
            assert entry.result.statistic == lone.statistic, query


@pytest.fixture
def leg_builds(monkeypatch):
    """Count RCIT's Z-leg builds (one ``cho_factor`` per build) and keep
    a weak reference to each built projector."""
    builds = {"count": 0, "projectors": [], "alive_at_build": []}
    real_factor, real_solve = rcit_module.cho_factor, rcit_module.cho_solve

    def counting_factor(*args, **kwargs):
        gc.collect()
        builds["alive_at_build"].append(
            sum(ref() is not None for ref in builds["projectors"]))
        builds["count"] += 1
        return real_factor(*args, **kwargs)

    def recording_solve(*args, **kwargs):
        projector = real_solve(*args, **kwargs)
        builds["projectors"].append(weakref.ref(projector))
        return projector

    monkeypatch.setattr(rcit_module, "cho_factor", counting_factor)
    monkeypatch.setattr(rcit_module, "cho_solve", recording_solve)
    return builds


def alive_projectors(builds) -> int:
    gc.collect()
    return sum(ref() is not None for ref in builds["projectors"])


class TestLegScope:
    """Leg reuse is scoped to one ledger run, so raw tester calls (what
    the fused-burst speedup gate times) still build every leg."""

    @pytest.fixture
    def table(self):
        return build_table(0, 80)

    def queries(self, z):
        return [CIQuery.make(x, "y", z) for x in (("f0",), ("f1",))]

    def test_raw_test_batch_calls_build_every_leg(self, table, leg_builds):
        tester = RCIT(seed=0)
        tester.test_batch(table, self.queries(("z1",)))
        tester.test_batch(table, self.queries(("z1",)))
        assert leg_builds["count"] == 2

    def test_one_ledger_builds_the_leg_once(self, table, leg_builds):
        ledger = CITestLedger(RCIT(seed=0), executor=SerialExecutor())
        first = ledger.test_batch(table, self.queries(("z1",)))
        second = ledger.test_batch(table, self.queries(("z1",)))
        assert leg_builds["count"] == 1
        assert ledger.n_tests == 4
        assert [(r.p_value, r.statistic) for r in first] == [
            (r.p_value, r.statistic) for r in second]

    def test_alternating_zs_hold_at_most_one_leg(self, table, leg_builds):
        ledger = CITestLedger(RCIT(seed=0), executor=SerialExecutor())
        sequence = [("z1",), ("z2",), ("z3",)] * 3
        for z in sequence:
            ledger.test_batch(table, self.queries(z))
            assert alive_projectors(leg_builds) == 1
        # Each batch changes the key, so each builds; the slot was
        # emptied before every build, so no earlier leg was alive then.
        assert leg_builds["count"] == len(sequence)
        assert leg_builds["alive_at_build"] == [0] * len(sequence)

    def test_unconditioned_groups_neither_hold_nor_evict(self, table,
                                                          leg_builds):
        ledger = CITestLedger(RCIT(seed=0), executor=SerialExecutor())
        ledger.test_batch(table, self.queries(("z1",)))
        ledger.test_batch(table, self.queries(()))
        ledger.test_batch(table, self.queries(("z1",)))
        assert leg_builds["count"] == 1

    def test_slot_dies_with_the_ledger(self, table, leg_builds):
        ledger = CITestLedger(RCIT(seed=0), executor=SerialExecutor())
        ledger.test_batch(table, self.queries(("z1",)))
        assert alive_projectors(leg_builds) == 1
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone._legs._held is None
        del ledger
        assert alive_projectors(leg_builds) == 0


class SlotProbe(CITester):
    """Reports whether a running leg slot is visible where it runs:
    p = 0 when one is, p = 1 when none is."""

    method = "slot-probe"

    def _group_eval(self, table, y_names, z_names, x_blocks):
        seen = running_leg_slot() is not None
        return [(0.0 if seen else 1.0, 0.0) for _ in x_blocks]


class TestSlotVisibility:
    @pytest.fixture
    def table(self):
        return build_table(1, 40)

    def queries(self, n):
        return [CIQuery.make(f"f{i % 4}", "y", ("z1",)) for i in range(n)]

    def test_raw_calls_see_no_slot(self, table):
        assert running_leg_slot() is None
        assert SlotProbe().test_batch(table, self.queries(2))[0].p_value == 1.0

    def test_ledger_exposes_its_slot_only_during_its_executor_call(
            self, table):
        ledger = CITestLedger(SlotProbe(), executor=SerialExecutor())
        assert ledger.test_batch(table, self.queries(2))[0].p_value == 0.0
        assert running_leg_slot() is None

    def test_forked_pool_workers_see_no_slot(self, table):
        with ProcessExecutor(n_workers=2, min_batch=2) as executor:
            ledger = CITestLedger(SlotProbe(), executor=executor)
            results = ledger.test_batch(table, self.queries(4))
        assert [r.p_value for r in results] == [1.0] * 4
