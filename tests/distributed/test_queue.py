"""Contract tests for the work-queue substrate.

Every queue behind :class:`~repro.distributed.queue.WorkQueue` must
honour the same contract: exclusive claims, lease expiry → requeue with a
bumped attempt counter, retry-budget exhaustion → explicit failure
result, idempotent completion.  The suite runs the shared contract over
the filesystem spool and over the in-memory queue the worker and
executor tests use.
"""

import os
import time

import pytest

from repro import faults
from repro.distributed.dispatch import collect, remote_map
from repro.distributed.queue import (FileSpoolQueue, MemoryQueue, Task,
                                     WorkQueue, decode_result,
                                     encode_failure, encode_success,
                                     queue_from_spec)
from repro.distributed.worker import WorkerThread
from repro.exceptions import CITestError, RemoteTaskError, TransportError

LEASE = 0.15


@pytest.fixture(params=["spool", "memory"])
def queue(request, tmp_path):
    """One WorkQueue per implementation, short-leased for fast expiry
    tests."""
    if request.param == "spool":
        return FileSpoolQueue(tmp_path / "q", lease=LEASE, retries=2)
    return MemoryQueue(lease=LEASE, retries=2)


def submit(queue, task_id, value=b"payload", context_id=""):
    queue.submit(Task(task_id=task_id, context_id=context_id,
                      payload=value))


class TestQueueContract:
    def test_submit_claim_complete_roundtrip(self, queue):
        submit(queue, "t0", b"zero")
        submit(queue, "t1", b"one")
        assert queue.result("t0") is None
        first = queue.claim("w")
        assert first.task_id == "t0" and first.payload == b"zero"
        assert first.attempts == 0
        queue.complete("t0", encode_success(42))
        assert decode_result(queue.result("t0")) == 42
        assert queue.result("t1") is None  # still pending
        assert queue.claim("w").task_id == "t1"

    def test_claims_are_exclusive(self, queue):
        submit(queue, "only")
        assert queue.claim("a") is not None
        assert queue.claim("b") is None

    def test_context_roundtrip(self, queue):
        assert queue.get_context("missing") is None
        queue.put_context("ctx", b"shared-state")
        assert queue.get_context("ctx") == b"shared-state"
        queue.put_context("ctx", b"replaced")  # idempotent republish
        assert queue.get_context("ctx") == b"replaced"

    def test_cancel_removes_pending_task(self, queue):
        submit(queue, "doomed")
        queue.cancel("doomed")
        assert queue.claim("w") is None
        queue.cancel("never-existed")  # no-op, no error

    def test_expired_lease_requeues_with_bumped_attempts(self, queue):
        submit(queue, "t")
        assert queue.claim("dying-worker") is not None
        assert queue.reclaim_expired() == 0  # lease still fresh
        time.sleep(LEASE * 1.5)
        assert queue.reclaim_expired() == 1
        retried = queue.claim("healthy-worker")
        assert retried is not None
        assert retried.task_id == "t" and retried.attempts == 1
        assert retried.payload == b"payload"

    def test_heartbeat_extends_the_lease(self, queue):
        submit(queue, "slow")
        assert queue.claim("w") is not None
        deadline = time.monotonic() + LEASE * 3
        while time.monotonic() < deadline:
            queue.extend("slow")
            time.sleep(LEASE / 4)
        assert queue.reclaim_expired() == 0  # never went stale

    def test_retry_budget_exhaustion_posts_explicit_failure(self, queue):
        submit(queue, "cursed")
        for attempt in range(3):  # retries=2 → attempts 0, 1, 2
            task = queue.claim(f"victim-{attempt}")
            assert task is not None and task.attempts == attempt
            time.sleep(LEASE * 1.5)
            queue.reclaim_expired()
        payload = queue.result("cursed")
        assert payload is not None
        with pytest.raises(RemoteTaskError, match="retry budget"):
            decode_result(payload)
        assert queue.claim("w") is None  # never requeued again

    def test_double_completion_is_idempotent(self, queue):
        submit(queue, "t")
        queue.claim("a")
        queue.complete("t", encode_success("answer"))
        queue.complete("t", encode_success("answer"))  # reclaimed twin
        assert decode_result(queue.result("t")) == "answer"


class TestResultPayloads:
    def test_failure_payload_reraises_original_type(self):
        with pytest.raises(ValueError, match="boom"):
            decode_result(encode_failure(ValueError("boom")))

    def test_attributed_citesterror_survives_the_payload_trip(self):
        error = CITestError("shard failed")
        error.query = ("f3", "y", ("a",))
        with pytest.raises(CITestError) as excinfo:
            decode_result(encode_failure(error))
        assert excinfo.value.query == ("f3", "y", ("a",))

    def test_unpicklable_failure_degrades_to_remote_error(self):
        class Hostile(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        with pytest.raises(RemoteTaskError, match="unpicklable"):
            decode_result(encode_failure(Hostile("original detail")))

    def test_transport_error_is_a_remote_task_error(self):
        assert issubclass(TransportError, RemoteTaskError)
        assert not issubclass(TransportError, EOFError)

    def test_torn_result_raises_transport_error_not_eoferror(self, tmp_path):
        queue = FileSpoolQueue(tmp_path / "q")
        whole = encode_success(list(range(100)))
        with faults.use_plan(faults.FaultPlan("spool.write:truncate=0.5x1")):
            queue.complete("t", whole)
        torn = queue.result("t")
        assert torn == whole[:len(whole) // 2]
        with pytest.raises(TransportError, match="undecodable result"):
            decode_result(torn)


class TestFileSpoolSpecifics:
    def test_task_id_with_reserved_characters_is_rejected(self, tmp_path):
        queue = FileSpoolQueue(tmp_path / "q")
        for bad in ("a@b", "a/b", f"a{os.sep}b"):
            with pytest.raises(RemoteTaskError, match="invalid task id"):
                submit(queue, bad)

    def test_lease_clock_starts_at_claim_not_submission(self, tmp_path):
        queue = FileSpoolQueue(tmp_path / "q", lease=0.3, retries=1)
        submit(queue, "t")
        time.sleep(0.35)  # older than the lease while *pending*
        assert queue.claim("w") is not None
        assert queue.reclaim_expired() == 0  # fresh claim, fresh lease

    def test_two_handles_share_one_spool(self, tmp_path):
        """Separate FileSpoolQueue instances (≈ separate processes) see
        each other's state — the property CLI workers depend on."""
        a = FileSpoolQueue(tmp_path / "q", lease=LEASE)
        b = FileSpoolQueue(tmp_path / "q", lease=LEASE)
        a.put_context("ctx", b"x")
        submit(a, "t")
        task = b.claim("other-process")
        assert task is not None and b.get_context("ctx") == b"x"
        b.complete("t", encode_success(1))
        assert decode_result(a.result("t")) == 1

    def test_torn_task_record_is_quarantined_and_the_worker_survives(
            self, tmp_path):
        """A task record torn on write must not kill the worker that
        claims it: the claim raises TransportError, the claim's lease
        lapses until the retry budget quarantines the record, and the
        batch fails explicitly instead of timing out."""
        queue = FileSpoolQueue(tmp_path / "q", lease=LEASE, retries=1)
        plan = faults.FaultPlan("spool.write:truncate=0.5x1")
        with faults.use_plan(plan), WorkerThread(queue, poll=0.01):
            submit(queue, "torn")
            assert list(plan.fired().values()) == [1]  # the record tore
            with pytest.raises(RemoteTaskError, match="retry budget"):
                collect(queue, ["torn"], timeout=3, poll=0.01)
            # The same worker still serves the next, intact task.
            assert remote_map(abs, [-7], queue, timeout=3, poll=0.01) == [7]
        quarantined = os.listdir(tmp_path / "q" / "quarantine")
        assert len(quarantined) == 1
        assert quarantined[0].startswith("torn@1@")


class TestQueueFromSpec:
    def test_workqueue_instances_pass_through(self):
        queue = MemoryQueue()
        assert queue_from_spec(queue) is queue

    def test_directory_spec_opens_a_spool(self, tmp_path):
        queue = queue_from_spec(tmp_path / "spool", lease=5, retries=1)
        assert isinstance(queue, FileSpoolQueue)
        assert queue.lease == 5 and queue.retries == 1

    def test_tcp_spec_is_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(RemoteTaskError,
                           match="must be a spool directory"):
            queue_from_spec("tcp://127.0.0.1:19999")
        assert os.listdir(tmp_path) == []

    def test_empty_spec_fails_loudly(self):
        with pytest.raises(RemoteTaskError, match="empty work-queue spec"):
            queue_from_spec("")

    def test_env_defaults_feed_the_spool(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CI_REMOTE_LEASE", "7")
        monkeypatch.setenv("REPRO_CI_REMOTE_RETRIES", "5")
        queue = queue_from_spec(tmp_path / "spool")
        assert queue.lease == 7.0 and queue.retries == 5

    def test_base_interface_is_abstract(self):
        with pytest.raises(NotImplementedError):
            WorkQueue().claim()


class TestQueueDefaults:
    def test_zero_lease_from_env_is_rejected(self, monkeypatch):
        """A zero lease from the environment meets the same check as an
        explicit ``lease=0``: it must not be read as the default."""
        with pytest.raises(RemoteTaskError, match="lease must be > 0"):
            MemoryQueue(lease=0)
        monkeypatch.setenv("REPRO_CI_REMOTE_LEASE", "0")
        with pytest.raises(RemoteTaskError, match="lease must be > 0"):
            MemoryQueue()
