"""Worker-loop behaviour: execution, healing, idling, and the guard
against a worker re-dispatching into its own queue.

These tests drive :func:`~repro.distributed.worker.worker_loop` and
:class:`~repro.distributed.worker.WorkerThread` against in-process
queues, so every robustness property (requeue healing, retry budgets,
worker-mode serialization) is pinned without subprocess machinery —
``test_remote_suite.py`` covers the real multi-process configuration.
"""

import pickle
import time

import numpy as np
import pytest

from repro.ci.base import CIQuery, CITestLedger
from repro.ci.executor import SerialExecutor, default_executor
from repro.ci.gtest import GTestCI
from repro.ci.store import ExperimentStore
from repro.data.table import Table
from repro.distributed.dispatch import collect, remote_map, submit_batch
from repro.distributed.queue import MemoryQueue, Task
from repro.distributed.worker import (WorkerThread, local_remote_executor,
                                      worker_loop)
from repro.exceptions import RemoteTaskError


def _square(x):
    return x * x


def _explode_on_seven(x):
    if x == 7:
        raise ValueError(f"item {x} is cursed")
    return x


def _executor_kind(_):
    """What default_executor resolves to *inside* a worker task."""
    return type(default_executor()).__name__


def _call_payload(fn, item) -> bytes:
    return pickle.dumps({"kind": "call", "fn": fn, "item": item},
                        protocol=pickle.HIGHEST_PROTOCOL)


class TestRemoteMap:
    def test_results_come_back_in_item_order(self):
        queue = MemoryQueue(lease=5)
        with WorkerThread(queue), WorkerThread(queue):
            got = remote_map(_square, list(range(12)), queue, timeout=30)
        assert got == [x * x for x in range(12)]

    def test_empty_items_short_circuit(self):
        assert remote_map(_square, [], MemoryQueue(lease=5)) == []

    def test_first_failure_reraises_the_original_exception(self):
        queue = MemoryQueue(lease=5)
        with WorkerThread(queue):
            with pytest.raises(ValueError, match="item 7 is cursed"):
                remote_map(_explode_on_seven, list(range(10)), queue,
                           timeout=30)

    def test_collect_times_out_when_no_worker_is_attached(self):
        queue = MemoryQueue(lease=5)
        task_ids = submit_batch(queue, [_call_payload(_square, 1)])
        with pytest.raises(RemoteTaskError, match="timed out"):
            collect(queue, task_ids, timeout=0.3, poll=0.02)
        # Timeout cancelled the pending sibling: nothing left to claim.
        assert queue.claim("late-worker") is None


class TestWorkerLoop:
    def test_max_tasks_caps_executions(self):
        queue = MemoryQueue(lease=5)
        task_ids = submit_batch(
            queue, [_call_payload(_square, x) for x in range(3)])
        assert worker_loop(queue, max_tasks=2, max_idle=5) == 2
        assert queue.result(task_ids[2]) is None  # third left pending

    def test_max_idle_stops_an_idle_worker(self):
        started = time.monotonic()
        assert worker_loop(MemoryQueue(lease=5), max_idle=0.2,
                           poll=0.02) == 0
        assert time.monotonic() - started < 2.0

    def test_unknown_task_kind_fails_the_task_not_the_worker(self):
        queue = MemoryQueue(lease=5)
        payload = pickle.dumps({"kind": "alien"},
                               protocol=pickle.HIGHEST_PROTOCOL)
        (task_id,) = submit_batch(queue, [payload])
        assert worker_loop(queue, max_tasks=1, max_idle=5) == 1
        with pytest.raises(RemoteTaskError, match="unknown task kind"):
            collect(queue, [task_id], timeout=5)

    def test_worker_heals_a_dead_peers_claim(self):
        """A task claimed by a worker that dies (never completes, never
        heartbeats) is reclaimed and finished by a surviving worker."""
        queue = MemoryQueue(lease=0.2, retries=2)
        (task_id,) = submit_batch(queue, [_call_payload(_square, 6)])
        dead = queue.claim("doomed-worker")
        assert dead is not None  # ...and then the worker is gone
        assert worker_loop(queue, max_tasks=1, max_idle=5, poll=0.02) == 1
        assert collect(queue, [task_id], timeout=5) == [36]

    def test_shard_task_with_unpublished_context_fails_cleanly(self):
        queue = MemoryQueue(lease=5)
        queue.submit(Task(task_id="orphan", context_id="never-published",
                          payload=pickle.dumps({"kind": "shard",
                                                "queries": []})))
        assert worker_loop(queue, max_tasks=1, max_idle=5) == 1
        with pytest.raises(RemoteTaskError, match="unpublished context"):
            collect(queue, ["orphan"], timeout=5)


class TestWorkerModeGuard:
    def test_tasks_resolve_the_default_executor_to_serial(self, monkeypatch):
        """Inside a worker task, ``REPRO_CI_EXECUTOR=remote`` must not
        re-dispatch into the queue the task came from — the guard pins
        the choice to serial for the serving thread."""
        monkeypatch.setenv("REPRO_CI_EXECUTOR", "remote")
        monkeypatch.delenv("REPRO_CI_REMOTE_QUEUE", raising=False)
        queue = MemoryQueue(lease=5)
        with WorkerThread(queue):
            got = remote_map(_executor_kind, [None], queue, timeout=30)
        assert got == ["SerialExecutor"]
        # The same environment *outside* worker mode is a hard error:
        # explicitly requesting remote with no queue configured.
        with pytest.raises(ValueError, match="REPRO_CI_REMOTE_QUEUE"):
            default_executor()

    def test_guard_is_thread_local_not_process_global(self, monkeypatch,
                                                      tmp_path):
        """A WorkerThread shares the dispatcher's process; only the
        serving thread loses re-dispatch rights.  With remote execution
        explicitly configured, the serving thread still pins serial
        while the dispatcher thread resolves to the remote executor."""
        monkeypatch.setenv("REPRO_CI_EXECUTOR", "remote")
        monkeypatch.setenv("REPRO_CI_REMOTE_QUEUE", str(tmp_path / "spool"))
        queue = MemoryQueue(lease=5)
        with WorkerThread(queue):
            inside = remote_map(_executor_kind, [None], queue, timeout=30)
        assert inside == ["SerialExecutor"]
        assert type(default_executor()).__name__ == "RemoteExecutor"
        from repro.ci.executor import worker_mode

        assert not worker_mode()  # the dispatcher thread never entered


class TestWorkerStoreSync:
    def test_shard_verdicts_land_in_the_shared_store(self, tmp_path):
        """Verdicts the workers compute reach the shared store through
        the dispatching run's ledger — the one writer of verdicts to a
        store — so later runs warm-start from them."""
        rng = np.random.default_rng(11)
        table = Table({"y": rng.integers(0, 2, 80),
                       "a": rng.integers(0, 3, 80),
                       "f0": rng.integers(0, 2, 80),
                       "f1": rng.integers(0, 2, 80),
                       "f2": rng.integers(0, 2, 80)})
        queries = [CIQuery.make(f"f{i}", "y", z)
                   for i, z in enumerate([(), ("a",), ()])]
        tester = GTestCI()
        store_root = tmp_path / "store"
        executor = local_remote_executor(n_workers=1, min_batch=2)
        try:
            ledger = CITestLedger(
                tester, cache=ExperimentStore(store_root).ci_cache("g-test"),
                executor=executor)
            results = ledger.test_batch(table, queries)
            ledger.flush_cache()
        finally:
            executor.close()
        baseline = SerialExecutor().run(tester, table, queries)
        assert [(r.independent, r.p_value) for r in results] == \
               [(r.independent, r.p_value) for r in baseline]
        cache = ExperimentStore(store_root).ci_cache("g-test")
        token = tuple(tester.cache_token())
        for query, result in zip(queries, results):
            record = cache.get(table.fingerprint, query.key, tester.method,
                               tester.alpha, token=token)
            assert record is not None
            assert record["p_value"] == result.p_value
            assert record["independent"] == result.independent
