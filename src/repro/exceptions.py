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
