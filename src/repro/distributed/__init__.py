"""Distributed wavefront execution over a shared work queue.

This package is the substrate of ROADMAP item 2 ("distributed wavefront
execution"): CI-test shards and whole experiment legs travel as *tasks*
over a :class:`~repro.distributed.queue.WorkQueue`, are executed by
workers (``python -m repro worker``), and come back as result payloads —
with the exact store and executor contracts the single-box engine already
enforces.  A distributed run is bitwise-identical to an inline one:
verdicts, ``n_ci_tests``, and ``cache_hits`` cannot notice the queue.

Layers:

* :mod:`repro.distributed.queue` — the queue: a filesystem spool
  (atomic-rename task/result files, lease expiry, retry budgets) that one
  shared directory deploys across processes and hosts, plus an
  in-memory queue behind the same interface.
* :mod:`repro.distributed.worker` — the worker loop (claim → execute →
  complete, with lease heartbeats), its CLI entry point, and the
  single-box helpers (:class:`WorkerThread`,
  :func:`local_remote_executor`).
* :mod:`repro.distributed.dispatch` — the submission side:
  :func:`remote_map` distributes arbitrary picklable calls (whole
  experiment legs) and :func:`collect` is the shared wait/reclaim loop
  the :class:`~repro.ci.executor.RemoteExecutor` rides too.
"""

from repro.distributed.dispatch import collect, remote_map
from repro.distributed.queue import (FileSpoolQueue, MemoryQueue, Task,
                                     WorkQueue, queue_from_spec)
from repro.distributed.worker import (WorkerThread, local_remote_executor,
                                      worker_loop)

__all__ = [
    "FileSpoolQueue",
    "MemoryQueue",
    "Task",
    "WorkQueue",
    "WorkerThread",
    "collect",
    "local_remote_executor",
    "queue_from_spec",
    "remote_map",
    "worker_loop",
]
