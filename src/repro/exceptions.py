"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A table or problem definition violates its declared schema.

    Raised for duplicate column names, unknown columns, role conflicts
    (e.g. one column declared both sensitive and admissible), or length
    mismatches between columns.
    """


class GraphError(ReproError):
    """A causal graph is malformed (cycles, unknown nodes, bad edges)."""


class MechanismError(ReproError):
    """A structural mechanism is inconsistent with its declared parents."""


class CITestError(ReproError):
    """A conditional-independence test received invalid input.

    Examples: empty variable sets, overlapping X/Y/Z sets, insufficient
    samples for the requested test.
    """


class NotFittedError(ReproError):
    """A model was used for prediction before :meth:`fit` was called."""


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped before reaching its tolerance."""


class SelectionError(ReproError):
    """Feature selection was invoked on an inconsistent problem instance."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class RemoteTaskError(ReproError):
    """A remote work-queue task could not be completed.

    Raised (or shipped back as a failure payload) when a task exhausts
    its requeue budget, when a dispatcher times out waiting for results,
    or when a work queue is misconfigured.
    """


class TransportError(RemoteTaskError):
    """A work queue failed at the byte level.

    The *typed* face of every spool mishap the distributed layer can
    hit: a torn task record a worker claimed, a result payload whose
    pickle does not decode.  Queues must raise this — never a bare
    ``EOFError`` / ``UnpicklingError`` — so dispatchers and workers can
    tell a transport hiccup (retry, back off, degrade) from a failing
    task.
    """


class FaultInjected(ReproError, OSError):
    """An error deliberately raised by the fault-injection substrate.

    Subclasses :class:`OSError` so injected failures travel the same
    ``except OSError`` hardening paths a real I/O error would — the
    whole point of injecting them.  Only ever raised when a
    :class:`repro.faults.FaultPlan` is active (``REPRO_FAULTS``), never
    in production configurations.
    """


class InjectedKill(FaultInjected):
    """A fault-plan ``kill`` action fired: the worker must die here.

    ``repro.distributed.worker.worker_loop`` translates this into
    ``os._exit`` for real worker processes (simulating SIGKILL) and
    into an abandoned claim for in-process worker threads — either way
    the lease lapses and the task is requeued elsewhere.
    """
