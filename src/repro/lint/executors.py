"""RL103 — executor purity.

Executor code is mechanism only: it may change *where* and *in what
order* CI tests physically run, but never the accounting (``n_tests``,
``cache_hits``, ledger ``entries``) or the order of the result list
handed back to the ledger — those are the observables the count-lock
tests pin to the sequential engine.  This checker flags writes to
accounting attributes and result re-ordering inside
``repro/ci/executor.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (Checker, Finding, ModuleSource, ProjectContext,
                             Rule, dotted_name)

RULE = Rule(
    id="RL103",
    name="executor-purity",
    summary=("executor code must not write n_tests/cache_hits/entries "
             "or reorder result lists"),
    contract=("executors are mechanism-only: results, n_ci_tests and "
              "cache_hits are provably identical to the sequential "
              "engine for any worker count"),
)

ACCOUNTING_ATTRS = frozenset({"n_tests", "cache_hits", "entries"})
_ORDER_MARKERS = ("result", "verdict")


def _mentions_results(node: ast.AST) -> bool:
    name = dotted_name(node).lower()
    return any(marker in name for marker in _ORDER_MARKERS)


class ExecutorPurityChecker(Checker):
    rule = RULE

    def scope(self, module: ModuleSource) -> bool:
        return (module.parts[-1] == "executor.py"
                and "ci" in module.parts[:-1])

    def check(self, module: ModuleSource,
              context: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and target.attr in ACCOUNTING_ATTRS):
                        yield self.finding(
                            module, node,
                            f"write to .{target.attr}: executors are "
                            "mechanism-only and must not touch ledger "
                            "accounting state")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name.endswith(".entries.append"):
                    yield self.finding(
                        module, node,
                        "append to .entries: ledger bookkeeping belongs "
                        "to the ledger, not the executor")
                elif name in ("sorted", "reversed") and any(
                        _mentions_results(arg) for arg in node.args):
                    yield self.finding(
                        module, node,
                        f"{name}() over a result sequence: executors "
                        "must return results in submission order")
                elif (name.endswith((".sort", ".reverse"))
                      and isinstance(node.func, ast.Attribute)
                      and _mentions_results(node.func.value)):
                    yield self.finding(
                        module, node,
                        f"in-place {name.rsplit('.', 1)[-1]}() of a "
                        "result sequence: executors must return results "
                        "in submission order")
