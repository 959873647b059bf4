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
  the ``(tester, table)`` pair once at pool start-up (a fork-started
  worker inherits it; under spawn or forkserver the table is pickled
  without its lazy caches and re-warms its ``discrete_codes`` per
  worker) and the pool is kept alive across calls for the same pair, so
  a selection run pays the process start-up cost once, not per burst.

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
``REPRO_CI_EXECUTOR`` environment variable (``serial`` / ``process``;
worker count via ``REPRO_CI_JOBS``), else serial.  The environment
variable is how the CI matrix runs the whole test suite under process
execution to enforce the equivalence contract.  Pools start workers the
interpreter's way: the default multiprocessing start method, or the one
an application sets with :func:`multiprocessing.set_start_method`.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from typing import TYPE_CHECKING, Sequence

from repro import env
from repro.exceptions import CITestError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.ci.base import CIQuery, CIResult, CITester
    from repro.data.table import Table


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
# the worker's private (tester, table) pair.  A fork-started worker
# inherits the parent's copy; under spawn or forkserver the table arrives
# without its lazy caches (see Table.__getstate__) and re-builds them
# here.  Either way every worker holds warm, process-local discrete codes
# shared across the shards it evaluates — never concurrently-mutated
# parent state.
_PROCESS_STATE: dict = {}


def _process_worker_init(tester: "CITester", table: "Table",
                         warm_names: Sequence[str]) -> None:
    table.warm_cache([name for name in warm_names if name in table])
    _PROCESS_STATE["tester"] = tester
    _PROCESS_STATE["table"] = table


def _process_worker_run(shard: Sequence["CIQuery"]) -> list["CIResult"]:
    # In an empty context: a fork-started worker would otherwise inherit
    # the context variables its forking thread had set, such as the
    # dispatching ledger's running leg slot.
    return contextvars.Context().run(
        _run_shard, _PROCESS_STATE["tester"], _PROCESS_STATE["table"], shard)


class ProcessExecutor(BatchExecutor):
    """Shard the batch across worker processes (true discrete parallelism).

    The ``(tester, table)`` pair reaches each worker once, at pool
    start-up (``initargs``), and shards then travel as lightweight query
    lists; results come back as plain :class:`~repro.ci.base.CIResult`
    values.  The pool is cached on the executor and reused while the
    ``(tester, table.fingerprint)`` pair is unchanged — a selection run
    over one table pays process start-up once across all of its bursts.
    Call :meth:`close` (or use the executor as a context manager) to
    release the workers early; dropping the executor releases them too.

    Workers start by the interpreter's default start method.  A child
    forked from the process that owns the pool inherits the pool object
    but not the thread that feeds it, so a pool is only ever used and
    shut down by the process that started it; a forked child drops it
    and starts its own.
    """

    name = "process"

    def __init__(self, n_workers: int | None = None,
                 min_batch: int = 16) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers or min(8, os.cpu_count() or 1)
        self.min_batch = min_batch
        self._pool: ProcessPoolExecutor | None = None
        self._pool_key: tuple | None = None
        self._pool_pid: int | None = None
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
        if (self._pool is not None and self._pool_key == key
                and self._pool_pid == os.getpid()):
            return self._pool
        self.close()
        warm_names = sorted({name for query in queries
                             for name in query.x + query.y + query.z})
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_process_worker_init,
            initargs=(tester, table, warm_names),
        )
        self._pool_key = key
        self._pool_pid = os.getpid()
        return self._pool

    def close(self) -> None:
        """Shut down the cached worker pool (idempotent).

        A pool another process started (this executor was inherited by a
        forked child) is dropped, never shut down: it is not this
        process's to stop, and its feeding thread does not exist here.
        """
        with self._lock:
            if self._pool is not None and self._pool_pid == os.getpid():
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
        return f"ProcessExecutor(n_workers={self.n_workers})"


#: Every executor by its ``name`` attribute.
EXECUTORS: dict[str, type[BatchExecutor]] = {
    cls.name: cls for cls in (SerialExecutor, ProcessExecutor)
}


def executor_by_name(name: str, **kwargs) -> BatchExecutor:
    """Look up an executor by its ``name`` attribute
    (``serial``/``process``)."""
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

    * ``REPRO_CI_EXECUTOR`` — ``serial`` (the default) or ``process``
    * ``REPRO_CI_JOBS`` — worker count for ``process`` (at least 1)

    The process executor runs only when ``REPRO_CI_EXECUTOR`` names it:
    unset means serial, never a guess.  An invalid value fails here,
    naming its variable, not at the first pooled batch.

    The process executor is shared process-wide per configuration (it is
    thread-safe), so every ledger in a run amortises one worker pool;
    serial executors are stateless and constructed fresh.
    """
    name = env.CI_EXECUTOR.read().lower()
    if name == "serial":
        return SerialExecutor()
    kwargs: dict = {}
    jobs = env.CI_JOBS.read_int(minimum=1)
    if jobs is not None:
        kwargs["n_workers"] = jobs
    key = (name, *sorted(kwargs.items()))
    cached = _DEFAULT_EXECUTORS.get(key)
    if cached is None:
        cached = _DEFAULT_EXECUTORS[key] = executor_by_name(name, **kwargs)
    return cached
