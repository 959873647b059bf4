"""Cognito-style feature transformations (Khurana et al., 2016).

The paper's appendix generates extra features "constructed by composition
of already present features" using Cognito-style transforms.  We implement
the unary transforms (squares, logs) and binary transforms (products,
sums, ratios) that :func:`cognito_expand` composes.  Derived columns keep the
CANDIDATE role so they flow straight into selection — any transform of a
biased feature is itself biased (a descendant in the causal graph), and the
selection algorithms must catch it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

import numpy as np

from repro.data.schema import Kind, Role
from repro.data.table import Table
from repro.exceptions import SchemaError

UnaryTransform = Callable[[np.ndarray], np.ndarray]
BinaryTransform = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _safe_log(values: np.ndarray) -> np.ndarray:
    return np.log1p(np.abs(values))


def _safe_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    denom = np.where(np.abs(b) < 1e-9, 1e-9, b)
    return a / denom


UNARY_TRANSFORMS: dict[str, UnaryTransform] = {
    "square": lambda v: v ** 2,
    "log": _safe_log,
}

BINARY_TRANSFORMS: dict[str, BinaryTransform] = {
    "product": lambda a, b: a * b,
    "sum": lambda a, b: a + b,
    "ratio": _safe_ratio,
}


def cognito_expand(table: Table, max_new: int = 20,
                   continuous_only: bool = True, rounds: int = 1) -> Table:
    """Cognito-style expansion over candidate columns.

    Applies unary transforms (square, log) and pairwise binary transforms
    (product, sum, ratio) to candidate features, capped at ``max_new``
    derived columns in total.  By default only *continuous* candidates are
    expanded — arithmetic over binary flags is meaningless (``square`` is
    the identity) and real feature-engineering pipelines target numeric
    columns.  ``rounds > 1`` re-expands over the previous round's outputs,
    Cognito's iterative exploration, which is how a handful of base columns
    grows into the hundreds of candidates the paper's Table 2 selects over.
    """
    if rounds < 1:
        raise SchemaError(f"rounds must be >= 1, got {rounds}")
    budget = max_new
    out = table
    for _ in range(rounds):
        if budget <= 0:
            break
        candidates = [
            c for c in out.schema.candidates
            if not continuous_only or not out.schema.spec(c).kind.is_discrete
        ]
        for name in ("square", "log"):
            for column in candidates:
                if budget <= 0:
                    return out
                derived = f"{name}({column})"
                if derived in out:
                    continue
                values = np.asarray(out[column], dtype=float)
                out = out.with_column(derived, UNARY_TRANSFORMS[name](values),
                                      role=Role.CANDIDATE,
                                      kind=Kind.CONTINUOUS)
                budget -= 1
        for name in ("product", "sum", "ratio"):
            if budget <= 0:
                return out
            for a, b in combinations(candidates, 2):
                if budget <= 0:
                    return out
                derived = f"{name}({a},{b})"
                if derived in out:
                    continue
                va = np.asarray(out[a], dtype=float)
                vb = np.asarray(out[b], dtype=float)
                out = out.with_column(derived,
                                      BINARY_TRANSFORMS[name](va, vb),
                                      role=Role.CANDIDATE,
                                      kind=Kind.CONTINUOUS)
                budget -= 1
    return out
