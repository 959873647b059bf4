"""Pluggable batch executors for the CI engine.

:class:`~repro.ci.base.CITestLedger.test_batch` routes its cache-miss
remainder through an executor, which decides *how* the inner tester's
``test_batch`` is invoked:

* :class:`SerialExecutor` (the default) — one call, in the caller's
  thread.  Preserves whole-batch kernel fusion (the discrete backends fuse
  same-``(Y, Z)`` queries into one counting pass), so it is the right
  choice for discrete-dominated workloads.
* :class:`ProcessExecutor` — shards the batch across worker *processes*.
  This scales a discrete (G-test) burst past the GIL: the fused counting
  kernels are pure-numpy integer work that holds the GIL, but two
  processes each fusing half a burst run in parallel.  Workers receive
  the ``(tester, table)`` pair once at pool start-up (spawn-safe
  pickling; the table ships without its lazy caches and re-warms its
  ``discrete_codes`` per worker) and the pool is kept alive across calls
  for the same pair, so a selection run pays the process start-up cost
  once, not per burst.
* :class:`RemoteExecutor` — shards the batch onto a
  :class:`~repro.distributed.queue.WorkQueue` served by external workers
  (``python -m repro worker``), which may live in other processes or on
  other machines sharing the spool directory.  The ``(tester, table)`` pair
  is published once per configuration as a queue *context* (the exact
  :class:`ProcessExecutor` pool key), so shards stay lightweight; lease
  expiry and retry budgets make a dead worker a requeue, not a hang.

Sharding splits a backend's fusion groups at shard boundaries — results
stay bitwise identical (fusion is exact: discrete kernels count the same
strata, continuous kernels re-derive the same per-block random draws),
only the shared passes multiply — so mixed batches are safe, merely less
fused.

Executors are deliberately *mechanism only*: result order always matches
the input order, every query is executed exactly once, and cost
accounting (ledger entries, early exit, caching) stays in the ledger —
an executor never sees cached queries and cannot change ``n_tests``.

Error contract: a failure inside a :class:`ProcessExecutor` worker
surfaces as :class:`~repro.exceptions.CITestError` with the offending
:class:`~repro.ci.base.CIQuery` attached as ``error.query`` (``None`` when
the failure cannot be pinned to one query, e.g. a crashed worker process)
— never as a bare pool exception.  :class:`SerialExecutor` stays fully
transparent: the caller's thread sees the original exception.

Executor choice is one knob: the executor a caller passes, else the
``REPRO_CI_EXECUTOR`` environment variable (``serial`` / ``process`` /
``remote``; worker count via ``REPRO_CI_JOBS``, multiprocessing start
method via ``REPRO_CI_MP_CONTEXT``), else serial.  The environment
variable is how the CI matrix runs the whole test suite under process
execution to enforce the equivalence contract.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from contextlib import contextmanager
from typing import TYPE_CHECKING, Sequence

from repro import env
from repro.exceptions import CITestError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.ci.base import CIQuery, CIResult, CITester
    from repro.data.table import Table
    from repro.distributed.queue import WorkQueue

ENV_EXECUTOR = env.CI_EXECUTOR.name
ENV_JOBS = env.CI_JOBS.name
ENV_MP_CONTEXT = env.CI_MP_CONTEXT.name


def _find_offending_query(tester: "CITester", table: "Table",
                          shard: Sequence["CIQuery"]) -> "CIQuery | None":
    """Replay a failed shard per query to pin down which one raised.

    Only runs on the error path.  Returns ``None`` when no single query
    reproduces the failure (e.g. a batch-only resource error).  The
    replay is safe because executors only receive a ledger's inner
    tester, which counts nothing: a ledger never wraps a ledger.
    """
    for query in shard:
        try:
            tester.test(table, query.x, query.y, query.z)
        except Exception:
            return query
    return None


def _run_shard(tester: "CITester", table: "Table",
               shard: Sequence["CIQuery"]) -> list["CIResult"]:
    """Evaluate one shard, converting failures to an attributed error.

    Every exception leaves here as :class:`CITestError` carrying the
    offending query on ``error.query`` — exception attributes survive
    pickling, so the attribution also crosses a process boundary.
    """
    try:
        return tester.test_batch(table, shard)
    except CITestError as exc:
        if getattr(exc, "query", None) is None:
            exc.query = _find_offending_query(tester, table, shard)
        raise
    except Exception as exc:
        error = CITestError(
            f"CI batch execution failed in a worker: {exc!r}")
        error.query = _find_offending_query(tester, table, shard)
        raise error from exc


def _contiguous_shards(queries: list, n_shards: int) -> list[list]:
    """Split ``queries`` into contiguous runs, preserving input order."""
    bounds = [round(i * len(queries) / n_shards)
              for i in range(n_shards + 1)]
    return [queries[bounds[i]:bounds[i + 1]]
            for i in range(n_shards) if bounds[i] < bounds[i + 1]]


class BatchExecutor:
    """How a batch of cache-missing CI queries gets executed."""

    name = "base"

    def run(self, tester: "CITester", table: "Table",
            queries: Sequence["CIQuery"]) -> list["CIResult"]:
        """Evaluate ``queries`` with ``tester``; results align with input."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(BatchExecutor):
    """Evaluate the whole batch in one call on the calling thread."""

    name = "serial"

    def run(self, tester: "CITester", table: "Table",
            queries: Sequence["CIQuery"]) -> list["CIResult"]:
        return tester.test_batch(table, queries)


# Per-worker state for ProcessExecutor, set once by the pool initializer:
# the worker's private (tester, table) pair.  The table arrives without its
# lazy caches (see Table.__getstate__) and re-builds them here, so every
# worker holds warm, process-local discrete codes shared across the shards
# it evaluates — never concurrently-mutated parent state.
_PROCESS_STATE: dict = {}


def _process_worker_init(tester: "CITester", table: "Table",
                         warm_names: Sequence[str]) -> None:
    table.warm_cache([name for name in warm_names if name in table])
    _PROCESS_STATE["tester"] = tester
    _PROCESS_STATE["table"] = table


def _process_worker_run(shard: Sequence["CIQuery"]) -> list["CIResult"]:
    return _run_shard(_PROCESS_STATE["tester"], _PROCESS_STATE["table"], shard)


class ProcessExecutor(BatchExecutor):
    """Shard the batch across worker processes (true discrete parallelism).

    The ``(tester, table)`` pair is pickled into each worker once, at pool
    start-up (``initargs``), and shards then travel as lightweight query
    lists; results come back as plain :class:`~repro.ci.base.CIResult`
    values.  The pool is cached on the executor and reused while the
    ``(tester, table.fingerprint)`` pair is unchanged — a selection run
    over one table pays process start-up once across all of its bursts.
    Call :meth:`close` (or use the executor as a context manager) to
    release the workers early; dropping the executor releases them too.

    ``mp_context`` selects the multiprocessing start method.  The default
    ``"spawn"`` works everywhere and is what the serialization contract is
    written against; ``"fork"`` starts workers far faster on POSIX and is
    safe here because workers only compute on their private copies.
    """

    name = "process"

    def __init__(self, n_workers: int | None = None,
                 min_batch: int = 16,
                 mp_context: str = "spawn") -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers or min(8, os.cpu_count() or 1)
        self.min_batch = min_batch
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._pool_key: tuple | None = None
        # One instance may be shared across ledgers (default_executor()
        # memoises); serialise pooled runs so one caller can never tear
        # down a pool another is mid-flight on.
        self._lock = threading.RLock()

    # -- pool lifecycle ------------------------------------------------------

    @staticmethod
    def _pool_key_for(tester: "CITester", table: "Table") -> tuple:
        # Keyed on the tester's *configuration*, not its pickled bytes:
        # cache_token() is contractually every behavior-affecting knob
        # beyond (method, alpha), while the raw pickle also drifts with
        # harmless parent-side memo state (OracleCI's reachability cache),
        # which would tear the pool down between bursts for nothing.
        return (table.fingerprint,
                f"{type(tester).__module__}.{type(tester).__qualname__}",
                getattr(tester, "method", ""),
                repr(getattr(tester, "alpha", None)),
                repr(tuple(tester.cache_token())))

    def _pool_for(self, tester: "CITester", table: "Table",
                  queries: Sequence["CIQuery"]) -> ProcessPoolExecutor:
        key = self._pool_key_for(tester, table)
        if self._pool is not None and self._pool_key == key:
            return self._pool
        self.close()
        import multiprocessing

        warm_names = sorted({name for query in queries
                             for name in query.x + query.y + query.z})
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=multiprocessing.get_context(self.mp_context),
            initializer=_process_worker_init,
            initargs=(tester, table, warm_names),
        )
        self._pool_key = key
        return self._pool

    def close(self) -> None:
        """Shut down the cached worker pool (idempotent)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
                self._pool_key = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __getstate__(self) -> dict:
        # Executors travel inside ledgers when those are themselves
        # pickled; ship the configuration, never the live pool (or its
        # unpicklable lock).
        state = self.__dict__.copy()
        state["_pool"] = None
        state["_pool_key"] = None
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- execution -----------------------------------------------------------

    def run(self, tester: "CITester", table: "Table",
            queries: Sequence["CIQuery"]) -> list["CIResult"]:
        queries = list(queries)
        if self.n_workers < 2 or len(queries) < max(2, self.min_batch):
            return _run_shard(tester, table, queries)
        with self._lock:
            try:
                # submit() can itself raise if a cached pool broke while
                # idle (worker OOM-killed between bursts) — the whole
                # pooled path stays under the guard so a wedged pool is
                # torn down rather than cached forever.
                pool = self._pool_for(tester, table, queries)
                shards = _contiguous_shards(
                    queries, min(self.n_workers, len(queries)))
                futures = [pool.submit(_process_worker_run, shard)
                           for shard in shards]
                return [result for future in futures
                        for result in future.result()]
            except BrokenProcessPool as exc:
                self.close()
                error = CITestError(
                    f"CI worker process died mid-batch: {exc!r}")
                error.query = None
                raise error from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProcessExecutor(n_workers={self.n_workers}, "
                f"mp_context={self.mp_context!r})")


# -- remote execution --------------------------------------------------------

# Thread-local, not process-global: a WorkerThread serving a queue shares
# its process with the dispatcher whose batches it executes, and only the
# serving thread must lose the right to re-dispatch.
_WORKER_STATE = threading.local()


def worker_mode() -> bool:
    """Whether the current thread is executing a remote work-queue task.

    Inside a worker, anything that would dispatch *back* onto a queue —
    ``REPRO_CI_EXECUTOR=remote`` inherited into the worker's environment,
    or a :class:`RemoteExecutor` riding in on a pickled tester — must run
    serially instead: a finite worker pool whose members wait on tasks
    only that same pool can serve is a deadlock.
    """
    return bool(getattr(_WORKER_STATE, "active", False))


@contextmanager
def worker_mode_scope():
    """Mark the current thread as a remote worker for the duration."""
    previous = getattr(_WORKER_STATE, "active", False)
    _WORKER_STATE.active = True
    try:
        yield
    finally:
        _WORKER_STATE.active = previous


def _transportable(tester: "CITester") -> bool:
    """Whether remote worker processes can unpickle ``tester`` at all.

    Workers import shipped objects by module path; a tester class defined
    in a test file or a notebook does not exist on their import path, so
    only library-defined testers may travel.
    """
    module = type(tester).__module__ or ""
    return module.split(".", 1)[0] == "repro"


class RemoteExecutor(BatchExecutor):
    """Shard the batch onto a work queue served by external workers.

    The distributed sibling of :class:`ProcessExecutor`: same sharding,
    same results, but the workers are whoever runs ``python -m repro
    worker`` against the same spool directory — other processes on this
    box, or other machines that mount it.  The ``(tester, table)`` pair
    is published once per configuration as a queue *context* keyed by
    the :class:`ProcessExecutor` pool key, so per-burst traffic is just
    query lists and result payloads.  Workers only compute: verdicts come
    back to the dispatching run's ledger, the one writer to any store.

    ``queue`` may be a live :class:`~repro.distributed.queue.WorkQueue`,
    a spool directory path, or ``None`` to read ``REPRO_CI_REMOTE_QUEUE``
    lazily at first use.

    Falls back to inline serial execution (identical results, by the
    executor contract) for batches below ``min_batch``, testers whose
    class workers cannot import (see ``allow_foreign`` — pass ``True``
    only when every worker shares the dispatcher's process, e.g.
    :class:`~repro.distributed.worker.WorkerThread`), and on any thread
    already executing a remote task (:func:`worker_mode`).

    Error contract: a failing query's :class:`CITestError` — with
    ``error.query`` attached by the worker-side replay — ships back
    verbatim in a failure payload and re-raises here.  Transport-level
    failures (retry budget exhausted after worker deaths, batch timeout,
    an unreachable queue) walk a graceful-degradation ladder by default
    (``degrade=True``): the batch re-runs on a local
    :class:`ProcessExecutor`, and if that too breaks, serially in this
    process.  Degradation is sticky for the executor's lifetime (until
    :meth:`close`), emits a :class:`RuntimeWarning` naming the cause,
    and is invisible to results and counts — the executor contract
    guarantees the fallback computes the identical answer.  With
    ``degrade=False`` a transport failure surfaces as
    :class:`CITestError` with ``query=None``, exactly like a
    :class:`ProcessExecutor` pool break.
    """

    name = "remote"

    def __init__(self, queue: "WorkQueue | str | None" = None,
                 n_workers: int | None = None, min_batch: int = 16,
                 timeout: float | None = None, poll: float | None = None,
                 allow_foreign: bool = False,
                 degrade: bool = True) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers or min(8, os.cpu_count() or 1)
        self.min_batch = min_batch
        self.timeout = timeout
        self.poll = poll
        self.allow_foreign = allow_foreign
        self.degrade = degrade
        self._spec = queue if isinstance(queue, str) else ""
        self._queue = queue if not isinstance(queue, str) else None
        self._published: set[str] = set()
        self._degraded = False
        self._fallback: ProcessExecutor | None = None
        self._lock = threading.RLock()

    # -- queue lifecycle -----------------------------------------------------

    def _queue_for_run(self) -> "WorkQueue":
        if self._queue is None:
            from repro.distributed.queue import queue_from_spec

            spec = self._spec or env.CI_REMOTE_QUEUE.read()
            self._queue = queue_from_spec(spec)
        return self._queue

    def close(self) -> None:
        """Drop the queue handle and reset any sticky degradation back to
        remote dispatch."""
        with self._lock:
            self._queue = None
            self._published = set()
            self._degraded = False
            if self._fallback is not None:
                self._fallback.close()
                self._fallback = None

    def __enter__(self) -> "RemoteExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self) -> dict:
        # Like ProcessExecutor: the executor may travel inside a pickled
        # ledger — ship configuration, never the live queue handle.
        state = self.__dict__.copy()
        state["_queue"] = None
        state["_published"] = set()
        state["_degraded"] = False
        state["_fallback"] = None
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- execution -----------------------------------------------------------

    @staticmethod
    def _context_id(tester: "CITester", table: "Table") -> str:
        key = ProcessExecutor._pool_key_for(tester, table)
        return hashlib.sha256(repr(key).encode()).hexdigest()[:24]

    def _degraded_run(self, tester: "CITester", table: "Table",
                      queries: Sequence["CIQuery"]) -> list["CIResult"]:
        """The lower rungs of the ladder: local processes, then serial.

        Both rungs compute the identical answer (executor contract), so
        degradation never shows up in results or counts — only in the
        warning emitted when the remote rung was abandoned.
        """
        with self._lock:
            fallback = self._fallback
            if fallback is None:
                fallback = self._fallback = ProcessExecutor(
                    n_workers=self.n_workers, min_batch=self.min_batch)
        try:
            return fallback.run(tester, table, queries)
        except CITestError as exc:
            if getattr(exc, "query", None) is not None:
                raise  # a real failing query fails on every rung
            # The local pool broke too (query=None): last rung, serial.
            warnings.warn(
                "degraded remote CI executor's process pool also failed "
                f"({exc}); finishing the batch serially", RuntimeWarning,
                stacklevel=2)
            return _run_shard(tester, table, queries)

    def run(self, tester: "CITester", table: "Table",
            queries: Sequence["CIQuery"]) -> list["CIResult"]:
        queries = list(queries)
        if (len(queries) < max(2, self.min_batch)
                or not (self.allow_foreign or _transportable(tester))
                or worker_mode()):
            return _run_shard(tester, table, queries)
        if self._degraded:
            return self._degraded_run(tester, table, queries)
        from repro.distributed.dispatch import collect, submit_batch

        with self._lock:
            try:
                queue = self._queue_for_run()
                context_id = self._context_id(tester, table)
                if context_id not in self._published:
                    warm_names = sorted(
                        {name for query in queries
                         for name in query.x + query.y + query.z})
                    queue.put_context(context_id, pickle.dumps(
                        {"tester": tester, "table": table,
                         "warm": warm_names},
                        protocol=pickle.HIGHEST_PROTOCOL))
                    self._published.add(context_id)
                shards = _contiguous_shards(
                    queries, min(self.n_workers, len(queries)))
                payloads = [pickle.dumps(
                    {"kind": "shard", "queries": shard},
                    protocol=pickle.HIGHEST_PROTOCOL) for shard in shards]
                task_ids = submit_batch(queue, payloads,
                                        context_id=context_id,
                                        timeout=self.timeout)
                shard_results = collect(queue, task_ids,
                                        timeout=self.timeout, poll=self.poll)
            except CITestError:
                raise  # worker-attributed failure, already on contract
            except Exception as exc:
                if not self.degrade:
                    error = CITestError(
                        f"remote CI batch failed in transport: {exc}")
                    error.query = None
                    raise error from exc
                # Graceful degradation: abandon the remote rung for this
                # executor's lifetime and recompute the batch locally —
                # same results by the executor contract, so the only
                # visible trace is this warning.
                warnings.warn(
                    "remote CI executor degrading to local execution "
                    f"after a transport failure: {exc}", RuntimeWarning,
                    stacklevel=2)
                self.close()
                self._degraded = True
        if self._degraded:
            return self._degraded_run(tester, table, queries)
        return [result for shard in shard_results for result in shard]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RemoteExecutor(n_workers={self.n_workers}, "
                f"queue={self._spec or self._queue!r})")


#: Every executor by its ``name`` attribute.
EXECUTORS: dict[str, type[BatchExecutor]] = {
    cls.name: cls
    for cls in (SerialExecutor, ProcessExecutor, RemoteExecutor)
}


def executor_by_name(name: str, **kwargs) -> BatchExecutor:
    """Look up an executor by its ``name`` attribute
    (``serial``/``process``/``remote``)."""
    if name not in EXECUTORS:
        raise ValueError(f"unknown executor {name!r}; "
                         f"choose from {sorted(EXECUTORS)}")
    return EXECUTORS[name](**kwargs)


# Pooled default executors are memoised per environment configuration:
# ledgers are created per select() call, and a fresh ProcessExecutor each
# time would re-spawn (and abandon) a worker pool per selection instead of
# amortising start-up across the run.
_DEFAULT_EXECUTORS: dict[tuple, BatchExecutor] = {}


def default_executor() -> BatchExecutor:
    """The executor a :class:`~repro.ci.base.CITestLedger` uses when none
    is passed explicitly.

    Controlled by environment variables so a whole run (or a CI job) can
    be switched onto a different execution strategy without touching call
    sites — the equivalence contract guarantees identical results/counts:

    * ``REPRO_CI_EXECUTOR`` — ``serial`` (the default), ``process``,
      ``remote``
    * ``REPRO_CI_JOBS`` — worker count for the pooled executors (shard
      count for ``remote``)
    * ``REPRO_CI_MP_CONTEXT`` — start method for ``process``
      (``spawn``/``fork``/``forkserver``)
    * ``REPRO_CI_REMOTE_QUEUE`` — the work queue ``remote`` dispatches
      to; ``remote`` without it is an error.  On a thread already
      serving remote tasks (:func:`worker_mode`) the choice is always
      serial, whatever the environment says.

    A pooled or remote executor runs only when ``REPRO_CI_EXECUTOR``
    names it: unset means serial, never a guess.

    Pooled executors are shared process-wide per configuration (they are
    thread-safe), so every ledger in a run amortises one worker pool;
    serial executors are stateless and constructed fresh.
    """
    name = env.CI_EXECUTOR.read().lower()
    if name == "remote":
        if worker_mode():
            # A worker serving a leg must not re-dispatch into the queue
            # it is being served from — a finite pool would deadlock.
            return SerialExecutor()
        if not env.CI_REMOTE_QUEUE.is_set():
            raise ValueError(
                f"{env.CI_EXECUTOR.name}=remote requires "
                f"{env.CI_REMOTE_QUEUE.name} to name a work queue "
                "(a spool directory)")
    if name == "serial":
        return SerialExecutor()
    kwargs: dict = {}
    jobs = env.CI_JOBS.read_int()
    if jobs is not None:
        kwargs["n_workers"] = max(1, jobs)
    context = env.CI_MP_CONTEXT.read()
    if context and name == "process":
        kwargs["mp_context"] = context
    if name == "remote":
        # The spec joins the memo key: repointing the queue between runs
        # must yield a fresh executor, not a cached stale queue.
        kwargs["queue"] = env.CI_REMOTE_QUEUE.read()
    key = (name, *sorted(kwargs.items()))
    cached = _DEFAULT_EXECUTORS.get(key)
    if cached is None:
        cached = _DEFAULT_EXECUTORS[key] = executor_by_name(name, **kwargs)
    return cached
