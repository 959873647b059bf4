"""Submission-side primitives: batch dispatch and the wait/reclaim loop.

:func:`collect` is the one polling loop every dispatcher rides — the
:class:`~repro.ci.executor.RemoteExecutor` for CI shards,
:func:`remote_map` for whole experiment legs.  It owns the robustness
half of the distribution contract: while waiting it keeps reclaiming
expired leases (so a dead worker's tasks requeue even when no other
worker is scanning), raises the *first* failure as soon as its payload
lands (cancelling still-pending siblings), tolerates a bounded run of
*transient* transport failures (a spool mount that briefly errors, an
injected fault) with exponential backoff and derived-seed jitter, and
times out explicitly rather than wedging.

:func:`submit_batch` propagates the batch timeout down to workers as an
absolute per-task deadline, so a worker never burns its slot computing a
result whose dispatcher has already given up.
"""

from __future__ import annotations

import pickle
import time
import uuid
from typing import Callable, Sequence

from repro import env, faults, rng
from repro.distributed.queue import Task, WorkQueue, decode_result
from repro.exceptions import RemoteTaskError, TransportError

__all__ = ["collect", "remote_map", "submit_batch"]

#: Consecutive transport failures :func:`collect` rides out before
#: declaring the queue gone.  With backoff capped at ``_BACKOFF_CAP``
#: this bounds the tolerated outage to a few seconds, well under any
#: realistic batch timeout.
_TRANSIENT_LIMIT = 20

_BACKOFF_CAP = 0.5

#: Per-task submit retries beyond the first attempt.  Resubmitting is
#: safe: a spool submit is an idempotent overwrite, and a duplicate that
#: does slip through a memory queue is covered by the determinism
#: contract (same payload, same result, idempotent completion).
_SUBMIT_RETRIES = 3


def _timing(timeout: float | None, poll: float | None) -> tuple[float, float]:
    if timeout is None:
        timeout = env.CI_REMOTE_TIMEOUT.read_float() or 0.0
    if poll is None:
        poll = env.CI_REMOTE_POLL.read_float() or 0.05
    return float(timeout), max(float(poll), 1e-4)


def batch_id() -> str:
    """A fresh dispatch-batch id (task ids are ``<batch>-<index>``)."""
    return uuid.uuid4().hex[:12]


def submit_batch(queue: WorkQueue, payloads: Sequence[bytes],
                 context_id: str = "",
                 timeout: float | None = None) -> list[str]:
    """Enqueue one task per payload; returns the task ids in order.

    ``timeout`` (defaulting to ``REPRO_CI_REMOTE_TIMEOUT``, matching
    :func:`collect`) becomes an absolute wall-clock deadline stamped on
    every task: a worker that claims one past it fails it immediately
    instead of computing for a dispatcher that already timed out.
    ``0`` means no deadline.
    """
    if timeout is None:
        timeout = env.CI_REMOTE_TIMEOUT.read_float() or 0.0
    deadline = (time.time() + float(timeout)) if timeout > 0 else 0.0
    batch = batch_id()
    task_ids = [f"{batch}-{index:05d}" for index in range(len(payloads))]
    jitter = rng.derive(0, "submit-backoff", batch)
    for task_id, payload in zip(task_ids, payloads):
        task = Task(task_id=task_id, context_id=context_id,
                    payload=payload, deadline=deadline)
        delay = 0.05
        for attempt in range(_SUBMIT_RETRIES + 1):
            try:
                queue.submit(task)
                break
            except (TransportError, OSError) as exc:
                if attempt >= _SUBMIT_RETRIES:
                    raise RemoteTaskError(
                        f"could not submit remote task {task_id} after "
                        f"{attempt + 1} attempt(s): {exc}") from exc
                time.sleep(delay * (0.5 + float(jitter.random())))
                delay = min(delay * 2.0, _BACKOFF_CAP)
    return task_ids


def _cancel_all(queue: WorkQueue, task_ids: Sequence[str]) -> None:
    for task_id in task_ids:
        try:
            queue.cancel(task_id)
        except (TransportError, OSError, RemoteTaskError):
            pass  # best-effort: the transport may be the casualty


def collect(queue: WorkQueue, task_ids: Sequence[str],
            timeout: float | None = None,
            poll: float | None = None) -> list:
    """Wait for every task and return the decoded values in task order.

    The first failure payload to arrive is raised immediately (its
    pending siblings are cancelled best-effort — claimed ones finish
    and their results are simply never read).  ``timeout`` bounds the
    whole batch (``0``/``None``-resolved-to-0 waits forever); expiry
    raises :class:`RemoteTaskError` after cancelling what it can.

    Transport errors while polling are *transient* up to a bounded run
    (``_TRANSIENT_LIMIT`` consecutive failures): the loop backs off
    exponentially — with jitter derived from the task ids, so concurrent
    dispatchers desynchronise deterministically — and retries, because a
    queue hiccup must not abort a batch whose workers are still alive.
    """
    timeout, poll = _timing(timeout, poll)
    deadline = (time.monotonic() + timeout) if timeout > 0 else None
    outstanding = [task_id for task_id in task_ids]
    values: dict[str, object] = {}
    jitter = rng.derive(0, "collect-backoff", tuple(task_ids))
    delay = poll
    failures = 0
    while outstanding:
        progressed = False
        faulted: Exception | None = None
        arrived: list[tuple[str, bytes]] = []
        try:
            faults.inject("dispatch.poll")
            for task_id in list(outstanding):
                payload = queue.result(task_id)
                if payload is not None:
                    arrived.append((task_id, payload))
            if len(arrived) < len(outstanding):
                # Keep the batch alive past worker deaths: requeue
                # expired leases ourselves instead of hoping a surviving
                # worker does.
                queue.reclaim_expired()
        except (TransportError, OSError) as exc:
            faulted = exc
        # Decode outside the transient guard: a failure *payload* (or a
        # corrupt one) is the batch's answer, not a queue hiccup — it
        # must raise, not be retried into a wedge.
        for task_id, payload in arrived:
            progressed = True
            outstanding.remove(task_id)
            try:
                values[task_id] = decode_result(payload)
            except BaseException:
                _cancel_all(queue, outstanding)
                raise
        if not outstanding:
            break
        if faulted is None:
            failures = 0
        else:
            failures += 1
            if failures > _TRANSIENT_LIMIT:
                _cancel_all(queue, outstanding)
                raise RemoteTaskError(
                    f"queue transport failed {failures} times in a row "
                    f"while collecting {len(outstanding)}/{len(task_ids)} "
                    f"remote task(s): {faulted}") from faulted
        if deadline is not None and time.monotonic() > deadline:
            _cancel_all(queue, outstanding)
            raise RemoteTaskError(
                f"timed out after {timeout:g}s waiting for "
                f"{len(outstanding)}/{len(task_ids)} remote task(s); "
                "are any workers attached to this queue?")
        if progressed:
            delay = poll
        else:
            time.sleep(delay * (0.5 + float(jitter.random())))
            delay = min(delay * 2.0, max(poll, _BACKOFF_CAP))
    return [values[task_id] for task_id in task_ids]


def remote_map(fn: Callable, items: Sequence, queue: WorkQueue,
               timeout: float | None = None,
               poll: float | None = None) -> list:
    """Distributed ``map``: one self-contained call task per item.

    ``fn`` must be picklable *by reference from the library or the
    standard library* (a module-level function or ``functools.partial``
    of one) — workers are separate processes that import it, they do not
    share the dispatcher's in-memory state.  Results come back in item
    order; the first worker exception re-raises here as-is (workers
    attribute their own errors, exactly like the process-pool path).
    """
    items = list(items)
    if not items:
        return []
    payloads = [pickle.dumps({"kind": "call", "fn": fn, "item": item},
                             protocol=pickle.HIGHEST_PROTOCOL)
                for item in items]
    task_ids = submit_batch(queue, payloads, timeout=timeout)
    return collect(queue, task_ids, timeout=timeout, poll=poll)
