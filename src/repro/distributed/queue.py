"""Work queues for distributed execution.

A queue carries three kinds of objects, all opaque byte payloads to the
queue:

* **contexts** — large shared state published once per
  ``(tester, table)`` pair (the pickled pair itself), referenced by
  content-derived id from many tasks.  Tables pickle without their
  derived caches, so a context carries only column values and workers
  rebuild what their shards need.
* **tasks** — units of work (a CI-query shard referencing a context, or
  a self-contained call).  Tasks are claimed by exactly one worker at a
  time; a claim carries a *lease* that the worker heartbeats while
  executing.
* **results** — one payload per finished task id.

Robustness contract (shared by every queue):

* **Claim atomicity** — two workers can never both claim one task.  The
  filesystem spool gets this from ``os.rename`` (the loser's source file
  is gone); the in-memory queue from a lock.
* **Lease expiry / requeue** — a claimed task whose lease lapses (worker
  died, was killed, lost the network) is *reclaimed*: requeued with its
  attempt count bumped.  Reclaiming is cooperative — workers and waiting
  dispatchers both call :meth:`WorkQueue.reclaim_expired` while polling,
  so a dead worker never wedges a batch as long as anyone is alive.
* **Retry budget / poison quarantine** — a task that keeps expiring
  (``attempts`` exceeding the queue's ``retries``) is failed
  *explicitly*: the queue posts a
  :class:`~repro.exceptions.RemoteTaskError` failure result so the
  dispatcher raises instead of waiting forever, and the spool preserves
  the poison task's record under ``quarantine/`` for forensics instead
  of burning further workers on it.
* **Idempotent completion** — a reclaimed task may race its original
  worker and complete twice.  That is safe by the determinism contract
  (the same task payload always computes the same result — stochastic
  testers are value-seeded at construction, so their verdicts depend
  only on the data, the query and their configuration; completion
  atomically replaces the result file with identical bytes).

Every I/O boundary here routes through a named fault-injection site
(:mod:`repro.faults`) — ``queue.claim``, ``queue.complete``,
``spool.write``, ... — so the chaos suite can deterministically exercise
the failure paths this contract promises to survive.  Byte-level
failures — a torn task record or result file — surface as
:class:`~repro.exceptions.TransportError` (never a bare ``EOFError`` or
``UnpicklingError``), so dispatchers and workers can tell a transport
hiccup from a failing task.

Payload conventions: :func:`encode_success` / :func:`encode_failure` /
:func:`decode_result` wrap values and exceptions in a tagged pickle so
failures travel as first-class results.  A spool carries pickles — share
it only between mutually trusted hosts, exactly like ``multiprocessing``
connections.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
import threading
import time
from dataclasses import dataclass, replace

from repro import env, faults
from repro.exceptions import RemoteTaskError, TransportError

__all__ = [
    "FileSpoolQueue",
    "MemoryQueue",
    "Task",
    "WorkQueue",
    "decode_result",
    "encode_failure",
    "encode_success",
    "queue_from_spec",
]


@dataclass(frozen=True)
class Task:
    """One unit of queued work.

    ``context_id`` names a published context the payload references
    (``""`` for self-contained tasks); ``attempts`` counts lease-expiry
    requeues, not executions — the queue bumps it on reclaim.
    ``deadline`` is an absolute wall-clock time (``0.0`` = none) the
    dispatcher propagated from its batch timeout: a worker claiming the
    task after it has passed fails it immediately instead of computing a
    result nobody is waiting for.
    """

    task_id: str
    context_id: str
    payload: bytes
    attempts: int = 0
    deadline: float = 0.0


def encode_success(value) -> bytes:
    """Wrap a computed value as a success result payload."""
    return pickle.dumps((True, value), protocol=pickle.HIGHEST_PROTOCOL)


def encode_failure(error: BaseException) -> bytes:
    """Wrap an exception as a failure result payload.

    Falls back to a :class:`RemoteTaskError` carrying ``repr(error)``
    when the original exception does not survive pickling — a failure
    must never be silently droppable.
    """
    try:
        return pickle.dumps((False, error),
                            protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps(
            (False, RemoteTaskError(f"unpicklable worker error: {error!r}")),
            protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(payload: bytes):
    """Unwrap a result payload: return the value or raise the failure.

    An undecodable payload (a torn result file) raises
    :class:`TransportError` — typed, so dispatchers can treat it as a
    transport casualty rather than a task verdict.
    """
    try:
        ok, value = pickle.loads(payload)
    except Exception as exc:
        raise TransportError(
            f"undecodable result payload ({len(payload)} bytes): "
            f"{exc!r}") from exc
    if ok:
        return value
    raise value


def _queue_defaults(lease: float | None, retries: int | None,
                    ) -> tuple[float, int]:
    # Both variables have registered defaults, so neither read is None,
    # and a 0 from the environment reaches the lease check below.
    if lease is None:
        lease = env.CI_REMOTE_LEASE.read_float()
    if retries is None:
        retries = env.CI_REMOTE_RETRIES.read_int(minimum=0)
    if lease <= 0:
        raise RemoteTaskError(f"lease must be > 0 seconds, got {lease}")
    return float(lease), int(retries)


class WorkQueue:
    """The queue interface dispatchers and workers share.

    Implementations must make :meth:`claim` exclusive, :meth:`complete` /
    :meth:`put_context` atomic (a reader never sees a partial payload),
    and :meth:`reclaim_expired` enforce the lease/retry contract in the
    module docstring.
    """

    def put_context(self, context_id: str, payload: bytes) -> None:
        """Publish shared state under ``context_id`` (idempotent)."""
        raise NotImplementedError

    def get_context(self, context_id: str) -> bytes | None:
        """The published payload, or ``None`` when never published."""
        raise NotImplementedError

    def submit(self, task: Task) -> None:
        """Enqueue one task for any worker to claim."""
        raise NotImplementedError

    def claim(self, worker_id: str = "") -> Task | None:
        """Exclusively claim one pending task (``None`` when idle).

        The claim starts a lease; the worker must :meth:`extend` it while
        executing or risk a requeue.
        """
        raise NotImplementedError

    def extend(self, task_id: str) -> None:
        """Heartbeat: re-arm the lease of a task this worker holds."""
        raise NotImplementedError

    def complete(self, task_id: str, payload: bytes) -> None:
        """Post the result for ``task_id`` and retire its queue entries."""
        raise NotImplementedError

    def result(self, task_id: str) -> bytes | None:
        """The posted result payload, or ``None`` while outstanding."""
        raise NotImplementedError

    def cancel(self, task_id: str) -> None:
        """Best-effort removal of a still-pending task (no-op if claimed,
        completed, or unknown)."""
        raise NotImplementedError

    def reclaim_expired(self) -> int:
        """Requeue lease-expired claims (bumping ``attempts``); fail
        tasks past their retry budget.  Returns how many were requeued."""
        raise NotImplementedError


def _budget_failure(task_id: str, attempts: int, retries: int) -> bytes:
    error = RemoteTaskError(
        f"remote task {task_id} lost its worker "
        f"{attempts + 1} time(s) and exhausted its retry budget "
        f"({retries}); a worker kept dying on it or the lease is shorter "
        "than the task")
    return encode_failure(error)


class FileSpoolQueue(WorkQueue):
    """Filesystem spool: a queue any shared directory can host.

    Layout under ``root`` (all writes are temp-file + ``os.replace``, the
    store module's merge-on-save discipline minus the merge — payloads
    are immutable)::

        context/<context_id>.pkl
        tasks/<task_id>@<attempts>.task                pending
        claimed/<task_id>@<attempts>@<deadline_ms>.task  leased
        results/<task_id>.result
        quarantine/<entry>.task                        poison tasks

    A claim is one ``os.rename`` from ``tasks/`` to ``claimed/`` — atomic
    on POSIX, and exclusive because the loser's source path is gone.  The
    lease deadline is *encoded in the claimed filename* (absolute wall
    clock, milliseconds), never in the file's mtime: mtime is stamped by
    the host that happens to write the file, so on a spool shared across
    machines (NFS) a skewed clock would make mtime-based reclaim either
    premature (duplicating live work) or never (wedging the batch).  With
    the deadline in the name, :meth:`extend` is a rename to a fresh
    deadline and :meth:`reclaim_expired` a name comparison — the task
    record itself is immutable from submit to completion, so there is no
    torn-rewrite window.  (Legacy deadline-less claimed entries fall back
    to the old mtime rule.)
    """

    def __init__(self, root: str | os.PathLike, lease: float | None = None,
                 retries: int | None = None) -> None:
        self.root = os.fspath(root)
        self.lease, self.retries = _queue_defaults(lease, retries)
        for name in ("context", "tasks", "claimed", "results",
                     "quarantine"):
            os.makedirs(os.path.join(self.root, name), exist_ok=True)

    # -- helpers -------------------------------------------------------------

    def _dir(self, kind: str) -> str:
        return os.path.join(self.root, kind)

    def _write_atomic(self, directory: str, name: str,
                      payload: bytes) -> None:
        payload = faults.inject_bytes("spool.write", payload)
        descriptor, tmp_path = tempfile.mkstemp(dir=directory,
                                                prefix=".spool-",
                                                suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_path, os.path.join(directory, name))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @staticmethod
    def _read(path: str) -> bytes | None:
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except (FileNotFoundError, OSError):
            return None

    @staticmethod
    def _parse_entry(name: str) -> tuple[str, int, int | None] | None:
        """``(task_id, attempts, deadline_ms | None)`` for a spool entry.

        Pending entries are ``<id>@<attempts>.task``; claimed entries
        carry the lease deadline as a third ``@``-field.  Task ids never
        contain ``@`` (enforced by :meth:`_entry_name`).
        """
        if not name.endswith(".task") or "@" not in name:
            return None
        stem = name[:-len(".task")]
        head, _, last = stem.rpartition("@")
        if "@" in head:
            task_id, _, attempts = head.rpartition("@")
            try:
                return task_id, int(attempts), int(last)
            except ValueError:
                return None
        try:
            return head, int(last), None
        except ValueError:
            return None

    @staticmethod
    def _entry_name(task_id: str, attempts: int) -> str:
        if "@" in task_id or "/" in task_id or os.sep in task_id:
            raise RemoteTaskError(f"invalid task id {task_id!r}")
        return f"{task_id}@{attempts}.task"

    @classmethod
    def _claimed_name(cls, task_id: str, attempts: int,
                      deadline: float) -> str:
        return (f"{cls._entry_name(task_id, attempts)[:-len('.task')]}"
                f"@{int(deadline * 1000)}.task")

    # -- contexts ------------------------------------------------------------

    def put_context(self, context_id: str, payload: bytes) -> None:
        self._write_atomic(self._dir("context"), f"{context_id}.pkl",
                           payload)

    def get_context(self, context_id: str) -> bytes | None:
        return self._read(os.path.join(self._dir("context"),
                                       f"{context_id}.pkl"))

    # -- tasks ---------------------------------------------------------------

    def submit(self, task: Task) -> None:
        faults.inject("queue.submit")
        body = pickle.dumps(
            {"task_id": task.task_id, "context_id": task.context_id,
             "payload": task.payload, "deadline": task.deadline},
            protocol=pickle.HIGHEST_PROTOCOL)
        self._write_atomic(self._dir("tasks"),
                           self._entry_name(task.task_id, task.attempts),
                           body)

    def claim(self, worker_id: str = "") -> Task | None:
        faults.inject("queue.claim")
        tasks_dir, claimed_dir = self._dir("tasks"), self._dir("claimed")
        try:
            names = sorted(os.listdir(tasks_dir))
        except OSError:
            return None
        for name in names:
            parsed = self._parse_entry(name)
            if parsed is None:
                continue
            task_id, attempts, _ = parsed
            source = os.path.join(tasks_dir, name)
            # One rename is both the exclusive claim and the lease grant:
            # the target name carries the deadline, so no follow-up
            # utime/rewrite can tear or land on the wrong host's clock.
            deadline = faults.clock("queue.clock.claim") + self.lease
            target = os.path.join(
                claimed_dir, self._claimed_name(task_id, attempts, deadline))
            try:
                os.rename(source, target)
            except OSError:
                continue  # another worker won this one
            body = self._read(target)
            if body is None:  # pragma: no cover - claim/complete race
                continue
            try:
                data = pickle.loads(body)
                return Task(task_id=data["task_id"],
                            context_id=data["context_id"],
                            payload=data["payload"], attempts=attempts,
                            deadline=data.get("deadline", 0.0))
            except Exception as exc:
                # A torn record: keep the claim, so its lease expires and
                # the retry budget quarantines it, never killing a worker.
                raise TransportError(
                    f"undecodable task record {name!r} ({len(body)} "
                    f"bytes): {exc!r}") from exc
        return None

    def extend(self, task_id: str) -> None:
        faults.inject("queue.extend")
        claimed_dir = self._dir("claimed")
        for name in self._entries_for(claimed_dir, task_id):
            parsed = self._parse_entry(name)
            if parsed is None:
                continue
            path = os.path.join(claimed_dir, name)
            if parsed[2] is None:  # legacy mtime-leased entry
                try:
                    os.utime(path)
                except OSError:
                    pass
                continue
            deadline = faults.clock("queue.clock.claim") + self.lease
            target = os.path.join(
                claimed_dir,
                self._claimed_name(task_id, parsed[1], deadline))
            try:
                os.rename(path, target)
            except OSError:
                pass  # completed (or reclaimed) under us

    def complete(self, task_id: str, payload: bytes) -> None:
        faults.inject("queue.complete")
        self._write_atomic(self._dir("results"), f"{task_id}.result",
                           payload)
        # Retire every copy of the task (a reclaimed duplicate may still
        # sit pending) so no worker re-runs already-answered work.
        for kind in ("claimed", "tasks"):
            for name in self._entries_for(self._dir(kind), task_id):
                try:
                    os.unlink(os.path.join(self._dir(kind), name))
                except OSError:
                    pass

    def result(self, task_id: str) -> bytes | None:
        return self._read(os.path.join(self._dir("results"),
                                       f"{task_id}.result"))

    def cancel(self, task_id: str) -> None:
        for name in self._entries_for(self._dir("tasks"), task_id):
            try:
                os.unlink(os.path.join(self._dir("tasks"), name))
            except OSError:
                pass

    def _entries_for(self, directory: str, task_id: str) -> list[str]:
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return [name for name in names
                if (parsed := self._parse_entry(name)) is not None
                and parsed[0] == task_id]

    def _quarantine_entry(self, path: str, name: str) -> bool:
        """Preserve a poison task's record instead of deleting it.

        Returns ``False`` when the entry was already gone (completed, or
        retired by a concurrent reclaimer).
        """
        try:
            faults.inject("queue.quarantine")
            os.replace(path, os.path.join(self._dir("quarantine"), name))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                return False
        return True

    def reclaim_expired(self) -> int:
        claimed_dir, tasks_dir = self._dir("claimed"), self._dir("tasks")
        requeued = 0
        now = faults.clock("queue.clock.reclaim")
        try:
            names = sorted(os.listdir(claimed_dir))
        except OSError:
            return 0
        for name in names:
            parsed = self._parse_entry(name)
            if parsed is None:
                continue
            task_id, attempts, deadline_ms = parsed
            path = os.path.join(claimed_dir, name)
            if os.path.exists(os.path.join(self._dir("results"),
                                           f"{task_id}.result")):
                # Already answered (a heartbeat rename racing complete
                # can orphan a claimed entry): retire, never requeue.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            if deadline_ms is not None:
                if now * 1000.0 <= deadline_ms:
                    continue
            else:  # legacy entry: fall back to the mtime rule
                try:
                    age = now - os.stat(path).st_mtime
                except OSError:
                    continue  # completed (or reclaimed) under us
                if age <= self.lease:
                    continue
            if attempts >= self.retries:
                # Quarantine before posting the failure: complete()
                # retires every live entry for the task, so the rename
                # must win first or there is nothing left to preserve.
                # The failure comes from the entry name alone — the
                # record may be the torn body that kept failing claims.
                if self._quarantine_entry(path, name):
                    self.complete(task_id, _budget_failure(
                        task_id, attempts, self.retries))
                continue
            target = os.path.join(tasks_dir,
                                  self._entry_name(task_id, attempts + 1))
            try:
                os.rename(path, target)
            except OSError:
                continue
            requeued += 1
        return requeued

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FileSpoolQueue({self.root!r}, lease={self.lease}, "
                f"retries={self.retries})")


class MemoryQueue(WorkQueue):
    """In-process queue: the fake the queue-contract, worker and executor
    tests run on, and the cheapest substrate for same-process worker
    threads."""

    def __init__(self, lease: float | None = None,
                 retries: int | None = None) -> None:
        self.lease, self.retries = _queue_defaults(lease, retries)
        self._lock = threading.RLock()
        self._contexts: dict[str, bytes] = {}
        self._pending: list[Task] = []
        self._claimed: dict[str, tuple[Task, float]] = {}
        self._results: dict[str, bytes] = {}

    def put_context(self, context_id: str, payload: bytes) -> None:
        with self._lock:
            self._contexts[context_id] = payload

    def get_context(self, context_id: str) -> bytes | None:
        with self._lock:
            return self._contexts.get(context_id)

    def submit(self, task: Task) -> None:
        faults.inject("queue.submit")
        with self._lock:
            self._pending.append(task)

    def claim(self, worker_id: str = "") -> Task | None:
        faults.inject("queue.claim")
        with self._lock:
            if not self._pending:
                return None
            task = self._pending.pop(0)
            self._claimed[task.task_id] = (task, time.monotonic())
            return task

    def extend(self, task_id: str) -> None:
        with self._lock:
            entry = self._claimed.get(task_id)
            if entry is not None:
                self._claimed[task_id] = (entry[0], time.monotonic())

    def complete(self, task_id: str, payload: bytes) -> None:
        faults.inject("queue.complete")
        with self._lock:
            self._results[task_id] = payload
            self._claimed.pop(task_id, None)
            self._pending = [task for task in self._pending
                             if task.task_id != task_id]

    def result(self, task_id: str) -> bytes | None:
        with self._lock:
            return self._results.get(task_id)

    def cancel(self, task_id: str) -> None:
        with self._lock:
            self._pending = [task for task in self._pending
                             if task.task_id != task_id]

    def reclaim_expired(self) -> int:
        with self._lock:
            now = time.monotonic()
            requeued = 0
            for task_id in list(self._claimed):
                task, claimed_at = self._claimed[task_id]
                if now - claimed_at <= self.lease:
                    continue
                del self._claimed[task_id]
                if task.attempts >= self.retries:
                    self._results[task_id] = _budget_failure(
                        task_id, task.attempts, self.retries)
                else:
                    self._pending.append(
                        replace(task, attempts=task.attempts + 1))
                    requeued += 1
            return requeued

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryQueue(lease={self.lease}, retries={self.retries}, "
                f"pending={len(self._pending)})")


#: A ``scheme://`` prefix (RFC 3986 scheme syntax): a URL, never a spool.
_URL_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://")


def queue_from_spec(spec: "str | os.PathLike | WorkQueue",
                    lease: float | None = None,
                    retries: int | None = None) -> WorkQueue:
    """Resolve a queue spec: a :class:`WorkQueue` passes through, a path
    opens a :class:`FileSpoolQueue` spool directory.

    A ``scheme://`` spec is rejected rather than read as a relative path,
    so a URL left in ``--queue`` or ``REPRO_CI_REMOTE_QUEUE`` fails loudly
    instead of creating a spool under ``./scheme:/``.
    """
    if isinstance(spec, WorkQueue):
        return spec
    spec = os.fspath(spec)
    if not spec:
        raise RemoteTaskError(
            "empty work-queue spec; set REPRO_CI_REMOTE_QUEUE (or pass "
            "--queue) to a spool directory")
    if _URL_SCHEME.match(spec):
        raise RemoteTaskError(
            f"work-queue spec {spec!r} is a URL; the queue must be a spool "
            "directory that the dispatcher and every worker can reach")
    return FileSpoolQueue(spec, lease=lease, retries=retries)
