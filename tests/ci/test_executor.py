"""Tests for the pluggable batch executors."""

import multiprocessing

import numpy as np
import pytest

from repro.ci.adaptive import AdaptiveCI
from repro.ci.base import CIQuery, CIResult, CITestLedger, CITester
from repro.ci.executor import (ProcessExecutor, SerialExecutor,
                               default_executor, executor_by_name)
from repro.ci.gtest import GTestCI
from repro.ci.rcit import RCIT
from repro.data.table import Table
from repro.exceptions import CITestError


def make_table(n=500, seed=0, n_features=12):
    rng = np.random.default_rng(seed)
    data = {"s": rng.integers(0, 2, n), "y": rng.integers(0, 2, n),
            "a": rng.integers(0, 3, n),
            "cont": rng.normal(size=n)}
    for i in range(n_features):
        data[f"f{i}"] = rng.integers(0, 3, n)
    return Table(data)


def queries(table):
    return [CIQuery.make(c, "y", ("a", "s"))
            for c in table.columns if c.startswith("f")]


def pooled(min_batch=2):
    """A small process pool; the generic pooled executor."""
    return ProcessExecutor(n_workers=2, min_batch=min_batch)


class TestExecutors:
    def test_by_name(self):
        assert isinstance(executor_by_name("serial"), SerialExecutor)
        process = executor_by_name("process", n_workers=3)
        assert isinstance(process, ProcessExecutor)
        assert process.n_workers == 3
        for name in ("rocket", "threads"):
            with pytest.raises(ValueError, match="unknown executor"):
                executor_by_name(name)

    def test_small_batches_run_serially(self):
        table = make_table()
        with pooled(min_batch=64) as executor:
            results = executor.run(GTestCI(), table, queries(table))
            assert executor._pool is None
        assert len(results) == len(queries(table))

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            ProcessExecutor(n_workers=0)


class TestLedgerExecutorAccounting:
    def test_counts_and_entries_unchanged(self):
        """Routing misses through a pooled executor must leave the
        ledger's accounting identical to the serial path."""
        table = make_table()
        qs = queries(table)
        serial = CITestLedger(GTestCI())
        serial.test_batch(table, qs)
        with pooled() as executor:
            sharded = CITestLedger(GTestCI(), executor=executor)
            sharded.test_batch(table, qs)
        assert sharded.n_tests == serial.n_tests == len(qs)
        assert [e.query for e in sharded.entries] == \
               [e.query for e in serial.entries]
        assert [e.result.p_value for e in sharded.entries] == \
               [e.result.p_value for e in serial.entries]

    def test_executor_never_sees_cached_queries(self):
        table = make_table()
        qs = queries(table)

        class CountingExecutor(SerialExecutor):
            executed = 0

            def run(self, tester, tbl, batch):
                CountingExecutor.executed += len(list(batch))
                return super().run(tester, tbl, batch)

        ledger = CITestLedger(GTestCI(), cache=True,
                              executor=CountingExecutor())
        ledger.test_batch(table, qs)
        ledger.test_batch(table, qs)
        assert CountingExecutor.executed == len(qs)
        assert ledger.cache_hits == len(qs)


class TestAdaptiveContinuousSharding:
    def test_mixed_batch_matches_unsharded(self):
        """A process pool shards a mixed discrete/continuous AdaptiveCI
        batch without changing any p-value."""
        table = make_table(n=300)
        mixed = [CIQuery.make("f0", "y", ("a",)),
                 CIQuery.make("cont", "y", ("a",)),
                 CIQuery.make("f1", "y", ("a",)),
                 CIQuery.make("cont", "s", ())]
        plain = AdaptiveCI(seed=0).test_batch(table, mixed)
        with pooled() as executor:
            sharded = executor.run(AdaptiveCI(seed=0), table, mixed)
            assert executor._pool is not None  # the batch really sharded
        assert [r.p_value for r in sharded] == [r.p_value for r in plain]
        assert [r.method for r in sharded] == [r.method for r in plain]


class PoisonedTester(CITester):
    """Raises on one specific X column; fine everywhere else.

    Module-level so worker processes can unpickle it by reference.
    """

    method = "poisoned"

    def __init__(self, poison: str = "f3", alpha: float = 0.01) -> None:
        super().__init__(alpha=alpha)
        self.poison = poison

    def test(self, table, x, y, z=()):
        query = CIQuery.make(x, y, z)
        if self.poison in query.x:
            raise ValueError(f"poisoned column {self.poison}")
        return CIResult(independent=True, p_value=1.0, statistic=0.0,
                        query=query, method=self.method)

    def test_batch(self, table, queries):
        return [self.test(table, q.x, q.y, q.z) for q in queries]


class TestWorkerErrorPropagation:
    """A worker failure must surface as CITestError with the offending
    query attached — never as a bare pool exception (the old behaviour)."""

    def poisoned_query(self, qs):
        return next(q for q in qs if "f3" in q.x)

    @pytest.mark.parametrize("make_executor", [
        pytest.param(lambda: ProcessExecutor(n_workers=2, min_batch=2),
                     id="process"),
        pytest.param(lambda: ProcessExecutor(n_workers=2, min_batch=64),
                     id="process-serial-fallback"),
    ])
    def test_failure_raises_citesterror_with_query(self, make_executor):
        table = make_table()
        qs = queries(table)
        executor = make_executor()
        try:
            with pytest.raises(CITestError) as excinfo:
                executor.run(PoisonedTester(), table, qs)
        finally:
            if hasattr(executor, "close"):
                executor.close()
        assert excinfo.value.query == self.poisoned_query(qs)

    def test_tester_citesterror_keeps_type_and_gains_query(self):
        """A CITestError raised by the tester itself (validation) is not
        re-wrapped — it only gains the query attribution."""
        table = make_table()
        bad = [CIQuery.make("f0", "y", ("a",)),
               CIQuery.make("absent", "y", ("a",))]
        with pooled() as executor:
            with pytest.raises(CITestError) as excinfo:
                executor.run(GTestCI(), table, bad)
        assert excinfo.value.query == bad[1]

    def test_serial_executor_stays_transparent(self):
        table = make_table()
        with pytest.raises(ValueError, match="poisoned"):
            SerialExecutor().run(PoisonedTester(), table, queries(table))

    def test_ledger_path_surfaces_attributed_error(self):
        table = make_table()
        qs = queries(table)
        with pooled() as executor:
            ledger = CITestLedger(PoisonedTester(), executor=executor)
            with pytest.raises(CITestError) as excinfo:
                ledger.test_batch(table, qs)
        assert excinfo.value.query == self.poisoned_query(qs)


class TestDefaultExecutorEnv:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_CI_EXECUTOR", raising=False)
        assert isinstance(default_executor(), SerialExecutor)
        assert isinstance(CITestLedger(GTestCI()).executor, SerialExecutor)

    def test_env_selects_process_with_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_CI_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_CI_JOBS", "3")
        executor = default_executor()
        assert isinstance(executor, ProcessExecutor)
        assert executor.n_workers == 3
        assert isinstance(CITestLedger(GTestCI()).executor, ProcessExecutor)

    def test_invalid_env_values_fail_loudly(self, monkeypatch):
        for name in ("rocket", "threads", "remote"):
            monkeypatch.setenv("REPRO_CI_EXECUTOR", name)
            with pytest.raises(ValueError, match="unknown executor"):
                default_executor()
        monkeypatch.setenv("REPRO_CI_EXECUTOR", "process")
        for jobs in ("many", "0", "-3"):
            monkeypatch.setenv("REPRO_CI_JOBS", jobs)
            with pytest.raises(ValueError, match="REPRO_CI_JOBS"):
                default_executor()

    def test_explicit_executor_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CI_EXECUTOR", "process")
        ledger = CITestLedger(GTestCI(), executor=SerialExecutor())
        assert isinstance(ledger.executor, SerialExecutor)

    def test_pooled_default_executor_is_shared_per_configuration(
            self, monkeypatch):
        """Regression: a fresh ProcessExecutor per ledger re-spawned a
        worker pool per selection; the env-configured pooled default is
        now one shared, thread-safe instance per configuration."""
        monkeypatch.setenv("REPRO_CI_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_CI_JOBS", "2")
        first = default_executor()
        assert default_executor() is first
        assert CITestLedger(GTestCI()).executor is \
               CITestLedger(GTestCI()).executor
        monkeypatch.setenv("REPRO_CI_JOBS", "3")
        assert default_executor() is not first
        monkeypatch.setenv("REPRO_CI_EXECUTOR", "serial")
        assert default_executor() is not default_executor()  # stateless


class TestValueSeededTestersShip:
    def test_generator_seeded_tester_runs_in_workers_and_matches_serial(self):
        """A Generator seed is drawn down to one int at construction, so
        the tester ships to worker processes like any int-seeded one and
        every copy reproduces the serial verdicts."""
        table = make_table(n=120)
        qs = queries(table)
        tester = RCIT(seed=np.random.default_rng(0))
        serial = SerialExecutor().run(tester, table, qs)
        with pooled() as executor:
            results = executor.run(tester, table, qs)
            assert executor._pool is not None  # sharded, not kept serial
        assert [r.p_value for r in results] == [r.p_value for r in serial]


class TestBrokenPoolRecovery:
    def test_killed_workers_surface_as_citesterror_and_pool_respawns(self):
        """Regression: a pool that broke while idle was re-used from the
        cache, escaping as a bare BrokenProcessPool forever; now it is
        torn down (attributed error) and the next batch respawns."""
        import os as _os
        import signal
        table = make_table()
        qs = queries(table)
        with ProcessExecutor(n_workers=2, min_batch=2) as executor:
            first = executor.run(GTestCI(), table, qs)
            for pid in list(executor._pool._processes):
                _os.kill(pid, signal.SIGKILL)
            with pytest.raises(CITestError, match="worker process died"):
                executor.run(GTestCI(), table, qs)
            assert executor._pool is None  # wedged pool torn down
            again = executor.run(GTestCI(), table, qs)  # fresh pool
        assert [r.p_value for r in again] == [r.p_value for r in first]


#: Seconds a forked child gets to answer before the test kills it.
CHILD_TIMEOUT = 30


def result_key(result):
    return (result.query, result.independent, result.p_value,
            result.statistic)


def _rerun_in_child(executor, table, batch, sender):
    """Fork-child side: rerun ``batch`` through the inherited executor."""
    ledger = CITestLedger(GTestCI(), executor=executor)
    sender.send([result_key(r) for r in ledger.test_batch(table, batch)])
    executor.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
class TestForkedChild:
    def test_child_reruns_a_pooled_batch_on_its_own_pool(self):
        """Regression: a child forked while its parent's executor held a
        live pool inherited that pool, and a batch under the same
        ``(tester, table)`` key went to it.  The thread that feeds the
        pool exists only in the parent, so the child waited forever.  The
        child must drop the inherited pool, leave it running for the
        parent, and start its own."""
        table = make_table()
        qs = queries(table)
        serial = [result_key(r)
                  for r in SerialExecutor().run(GTestCI(), table, qs)]
        context = multiprocessing.get_context("fork")
        with pooled() as executor:
            parent = CITestLedger(GTestCI(), executor=executor)
            assert [result_key(r)
                    for r in parent.test_batch(table, qs)] == serial
            assert executor._pool is not None
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_rerun_in_child,
                                    args=(executor, table, qs, sender))
            child.start()
            sender.close()
            try:
                got = (receiver.recv() if receiver.poll(CHILD_TIMEOUT)
                       else "timed out")
            except EOFError:
                got = "died without answering"
            finally:
                child.join(CHILD_TIMEOUT)
                if child.is_alive():
                    child.kill()
                    child.join()
            assert got == serial
            assert child.exitcode == 0
            # The parent's pool survived the child.
            assert [result_key(r)
                    for r in executor.run(GTestCI(), table, qs)] == serial
