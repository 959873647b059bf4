"""The remote worker: claim → execute → complete, with lease heartbeats.

A worker process (``python -m repro worker --queue <spec>``) pulls tasks
from a :class:`~repro.distributed.queue.WorkQueue` and executes them:

* **shard tasks** (from :class:`~repro.ci.executor.RemoteExecutor`)
  reference a published ``(tester, table)`` context — unpickled once per
  context and cached, its columns frozen read-only again on unpickling —
  and run through the same ``_run_shard`` helper the
  in-process pools use, so the error contract (failures as
  :class:`~repro.exceptions.CITestError` with ``error.query`` attached)
  is byte-for-byte the pooled one.  Shard results only travel back
  through the queue: the dispatching run's ledger is the one writer of
  verdicts to a store.
* **call tasks** (from :func:`~repro.distributed.dispatch.remote_map`)
  are self-contained pickled ``fn(item)`` invocations — how whole
  experiment legs distribute; legs open their own store on the shared
  root and merge-save exactly as process-pool legs do.

While executing, a heartbeat thread keeps extending the task's lease, so
only a *dead* worker's tasks get reclaimed — a slow task is never
spuriously duplicated.  Every task executes under the worker-mode guard
(:func:`repro.ci.executor.worker_mode`): a leg that would itself consult
``REPRO_CI_EXECUTOR=remote`` runs its CI batches serially instead of
re-dispatching into the queue it is being served from (which could
deadlock a finite worker pool).

Failure discipline:

* a transient queue failure on claim or complete (typed
  :class:`~repro.exceptions.TransportError` / ``OSError``) is retried
  with backoff — the loop never dies on a queue hiccup;
* an injected :class:`~repro.exceptions.InjectedKill` simulates worker
  death: a *real* worker process (``killable=True``) exits immediately
  via ``os._exit`` (no cleanup — that is the point), while an in-process
  :class:`WorkerThread` abandons the claim and keeps serving (its lease
  lapses and the task requeues elsewhere);
* ``run_worker`` installs SIGTERM/SIGINT handlers that request a stop:
  the in-flight task finishes and completes, and only then does the
  process exit — a drain, not a mid-``complete`` crash.

Results are deterministic by the executor/store contracts, which is what
makes at-least-once delivery safe: a reclaimed task re-executed elsewhere
completes with identical bytes.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
import threading
import time
import uuid

from repro import env, faults
from repro.ci.executor import (RemoteExecutor, _run_shard,
                               worker_mode_scope)
from repro.distributed.queue import (FileSpoolQueue, Task, WorkQueue,
                                     encode_failure, encode_success,
                                     queue_from_spec)
from repro.exceptions import (FaultInjected, InjectedKill,
                              RemoteTaskError, TransportError)

__all__ = ["WorkerThread", "local_remote_executor", "run_worker",
           "worker_loop"]

#: Loaded (tester, table) contexts a worker keeps warm at once.  Shards
#: of one selection run share one context; a small cache covers suites
#: interleaving a few tables without pinning every table ever shipped.
CONTEXT_CACHE_SIZE = 4

#: Attempts a worker makes to post one completed result before
#: abandoning the claim to lease recovery.
_COMPLETE_ATTEMPTS = 3


def _load_context(queue: WorkQueue, context_id: str,
                  cache: dict[str, tuple]) -> tuple:
    """The unpickled ``(tester, table)`` pair for ``context_id``.

    Mirrors ``_process_worker_init``: the table re-warms the shipped
    column names so every shard of the context shares warm process-local
    caches.
    """
    loaded = cache.get(context_id)
    if loaded is not None:
        return loaded
    payload = queue.get_context(context_id)
    if payload is None:
        raise RemoteTaskError(
            f"task references unpublished context {context_id!r}; the "
            "dispatcher publishes contexts before submitting, so this "
            "spool is stale or foreign")
    data = pickle.loads(payload)
    tester, table = data["tester"], data["table"]
    table.warm_cache([name for name in data.get("warm", ())
                      if name in table])
    while len(cache) >= CONTEXT_CACHE_SIZE:
        cache.pop(next(iter(cache)))
    cache[context_id] = (tester, table)
    return tester, table


def _execute(queue: WorkQueue, task: Task, contexts: dict) -> bytes:
    """Run one task to a result payload; failures become failure payloads.

    The broad catch is this boundary's contract: *any* task-level
    exception must travel back as a failure payload for the dispatcher
    to attribute — dropping one would turn a bug into a lease timeout.
    :class:`InjectedKill` is the one exception that must escape: it
    simulates the worker dying *here*, so it cannot be allowed to
    complete the task.
    """
    try:
        with worker_mode_scope():
            data = pickle.loads(task.payload)
            kind = data.get("kind")
            if kind == "call":
                return encode_success(data["fn"](data["item"]))
            if kind == "shard":
                tester, table = _load_context(queue, task.context_id,
                                              contexts)
                return encode_success(
                    _run_shard(tester, table, data["queries"]))
            raise RemoteTaskError(f"unknown task kind {kind!r}")
    except InjectedKill:
        raise
    except Exception as exc:
        return encode_failure(exc)


class _Heartbeat:
    """Extends a claimed task's lease on a side thread while it runs,
    three times per lease."""

    def __init__(self, queue: WorkQueue, task_id: str) -> None:
        self._queue = queue
        self._task_id = task_id
        self._interval = max(float(queue.lease) / 3.0, 0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-heartbeat-{task_id}",
            daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._queue.extend(self._task_id)
            except (RemoteTaskError, OSError):
                return  # a dead queue ends the lease with the worker

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def _expired_failure(task: Task) -> bytes:
    return encode_failure(RemoteTaskError(
        f"remote task {task.task_id} reached its dispatch deadline "
        "before a worker could start it; the batch timed out upstream"))


def _complete_with_retry(queue: WorkQueue, task_id: str,
                         payload: bytes, poll: float) -> bool:
    """Post a result, riding out transient queue failures.

    Returns ``False`` when every attempt failed — the claim is then
    abandoned to lease recovery, which requeues the (deterministic)
    task for another worker.  :class:`InjectedKill` propagates: a kill
    during completion is the worker dying, not a retryable hiccup.
    """
    delay = max(poll, 0.01)
    for attempt in range(_COMPLETE_ATTEMPTS):
        try:
            queue.complete(task_id, payload)
            return True
        except InjectedKill:
            raise
        except (TransportError, RemoteTaskError, OSError):
            if attempt == _COMPLETE_ATTEMPTS - 1:
                return False
            time.sleep(delay)
            delay *= 2.0
    return False


def worker_loop(queue: WorkQueue, worker_id: str = "",
                max_idle: float | None = None,
                max_tasks: int | None = None,
                poll: float | None = None,
                stop: threading.Event | None = None,
                killable: bool = False) -> int:
    """Serve tasks from ``queue`` until told (or idled) to stop.

    ``max_idle`` bounds how long the worker waits without claiming
    anything (``None`` = forever); ``max_tasks`` caps executions (worker
    rotation, and deterministic tests); ``stop`` is an external kill
    switch — checked between tasks, so a stop request drains the
    in-flight task rather than corrupting its completion.  ``killable``
    says an :class:`InjectedKill` fault may really terminate this
    process (``os._exit``); in-process worker threads instead abandon
    the claim (the lease heals it) and keep serving.  Returns the number
    of tasks executed.  The loop never dies on a failing task — failures
    are posted as results — and it keeps reclaiming expired sibling
    leases while idle, so one surviving worker heals a peer's death.
    """
    worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    if poll is None:
        poll = env.CI_REMOTE_POLL.read_float() or 0.05
    contexts: dict[str, tuple] = {}
    executed = 0
    claim_delay = poll
    idle_deadline = (time.monotonic() + max_idle
                     if max_idle is not None else None)
    while stop is None or not stop.is_set():
        try:
            task = queue.claim(worker_id)
            claim_delay = poll
        except InjectedKill:
            if killable:
                os._exit(99)
            task = None  # abandon the attempt; keep serving
        except (TransportError, RemoteTaskError, OSError):
            # Queue hiccup: back off and retry, don't die — the
            # dispatcher's lease machinery covers anything lost.
            if stop is not None:
                stop.wait(claim_delay)
            else:
                time.sleep(claim_delay)
            claim_delay = min(claim_delay * 2.0, 1.0)
            continue
        if task is None:
            try:
                if queue.reclaim_expired():
                    continue  # something just became claimable
            except (TransportError, RemoteTaskError, OSError):
                pass
            if (idle_deadline is not None
                    and time.monotonic() > idle_deadline):
                break
            if stop is not None:
                stop.wait(poll)
            else:
                time.sleep(poll)
            continue
        if (task.deadline
                and faults.clock("worker.clock") > task.deadline):
            # The dispatcher already gave up on this batch; fail the
            # task explicitly instead of computing into the void.
            _complete_with_retry(queue, task.task_id,
                                 _expired_failure(task), poll)
            continue
        heartbeat = _Heartbeat(queue, task.task_id)
        try:
            # The execution-site fault fires outside _execute's
            # failure-payload boundary: a kill here is worker death,
            # never a task verdict.
            faults.inject("worker.execute")
            payload = _execute(queue, task, contexts)
        except InjectedKill:
            heartbeat.stop()
            if killable:
                os._exit(99)
            continue  # abandon the claim; the lease requeues it
        except FaultInjected:
            heartbeat.stop()
            continue  # simulated crash mid-execute: same abandonment
        finally:
            heartbeat.stop()
        if not _complete_with_retry(queue, task.task_id, payload,
                                    poll):
            continue  # claim abandoned to lease recovery
        executed += 1
        if max_idle is not None:
            idle_deadline = time.monotonic() + max_idle
        if max_tasks is not None and executed >= max_tasks:
            break
    return executed


def run_worker(queue_spec: str, worker_id: str = "",
               max_idle: float | None = None,
               max_tasks: int | None = None,
               poll: float | None = None,
               lease: float | None = None) -> int:
    """CLI entry point body for ``python -m repro worker``.

    Installs SIGTERM/SIGINT handlers that request a graceful stop: the
    loop finishes (and completes) its in-flight task and returns — the
    worker is drainable by ``kill``, never left mid-``complete``.  A
    second signal falls back to the default handler, so a wedged worker
    can still be killed hard.
    """
    queue = queue_from_spec(queue_spec, lease=lease)
    stop = threading.Event()
    previous: dict[int, object] = {}

    def _request_stop(signum, frame):  # pragma: no cover - signal timing
        stop.set()
        # Restore the previous disposition: a repeat signal kills.
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass

    try:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _request_stop)
    except ValueError:
        previous = {}  # not the main thread (embedded use): no handlers
    try:
        worker_loop(queue, worker_id=worker_id, max_idle=max_idle,
                    max_tasks=max_tasks, poll=poll, stop=stop,
                    killable=True)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
    return 0


class WorkerThread:
    """A worker loop on a daemon thread (single-box distributed mode).

    Serves the same queues as worker *processes* — tasks still make the
    full pickle round-trip through the queue — without process
    start-up cost.  Used by :func:`local_remote_executor`, benchmarks,
    and anywhere a dispatcher wants to guarantee at least one worker.
    Never ``killable``: an injected kill makes it abandon its claim (the
    lease requeues the task), since exiting would take the dispatcher's
    process down with it.
    """

    def __init__(self, queue: WorkQueue, poll: float = 0.01,
                 worker_id: str = "") -> None:
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=worker_loop, name="repro-worker",
            kwargs=dict(queue=queue, worker_id=worker_id, poll=poll,
                        stop=self._stop),
            daemon=True)

    def start(self) -> "WorkerThread":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def __enter__(self) -> "WorkerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _LocalRemoteExecutor(RemoteExecutor):
    """A RemoteExecutor owning its spool and worker threads."""

    def __init__(self, workers: list[WorkerThread],
                 owned_root: str | None, **kwargs) -> None:
        super().__init__(**kwargs)
        self._workers = workers
        self._owned_root = owned_root

    def close(self) -> None:
        super().close()
        for worker in self._workers:
            worker.stop()
        self._workers = []
        if self._owned_root is not None:
            import shutil

            shutil.rmtree(self._owned_root, ignore_errors=True)
            self._owned_root = None


def local_remote_executor(n_workers: int = 1,
                          root: str | os.PathLike | None = None,
                          min_batch: int = 16,
                          lease: float | None = None,
                          retries: int | None = None,
                          timeout: float | None = None,
                          allow_foreign: bool = True) -> RemoteExecutor:
    """A ready-to-run remote executor over a local spool + worker threads.

    The single-box "distributed" configuration: a fresh filesystem spool
    (a temp directory when ``root`` is ``None`` — removed again on
    ``close()``), ``n_workers`` worker threads serving it, and a
    :class:`~repro.ci.executor.RemoteExecutor` dispatching to them.
    ``allow_foreign`` defaults to ``True`` because same-process workers
    can unpickle anything the dispatcher can.
    """
    owned_root = None
    if root is None:
        root = owned_root = tempfile.mkdtemp(prefix="repro-spool-")
    queue = FileSpoolQueue(root, lease=lease, retries=retries)
    workers = [WorkerThread(queue).start()
               for _ in range(max(1, n_workers))]
    return _LocalRemoteExecutor(
        workers, owned_root, queue=queue, n_workers=max(1, n_workers),
        min_batch=min_batch, timeout=timeout, allow_foreign=allow_foreign)
