"""RL101 — cache-token completeness.

Persistent CI caches key entries on ``(fingerprint, (x, y, z), method,
alpha, cache_token())``, the query in its own orientation.  Any constructor parameter that changes a
tester's verdicts but is missing from ``cache_token()`` silently serves
stale cached p-values when the parameter changes between runs.  This
checker approximates "changes the verdicts" as: the attribute is derived
from an ``__init__`` parameter *and* read by some other method.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (Checker, Finding, ModuleSource, ProjectContext,
                             Rule, self_attribute_names)

RULE = Rule(
    id="RL101",
    name="cache-token",
    summary=("every behaviour-affecting constructor parameter of a "
             "CITester must appear in cache_token()"),
    contract=("persistent store entries are keyed on (fingerprint, "
              "query (x, y, z), method, alpha, cache_token); a parameter "
              "outside the token makes cache hits config-blind"),
)

#: Attributes that are mechanism, not semantics: they steer *how* tests
#: run (scheduling, caching plumbing), never *what* verdict comes back,
#: so keying the persistent store on them would only fragment it.
#: ``alpha`` is excluded because the store keys it separately.
MECHANISM_ATTRS = frozenset({"alpha", "executor", "store", "_cache_enabled"})


def _param_names(init: ast.FunctionDef) -> set[str]:
    args = init.args
    names = [a.arg for a in args.args + args.posonlyargs + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return {n for n in names if n != "self"}


def _stored_from_params(init: ast.FunctionDef) -> set[str]:
    """``self.X`` attributes whose assigned value references an
    ``__init__`` parameter."""
    params = _param_names(init)
    stored: set[str] = set()
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        if value is None:
            continue
        value_names = {leaf.id for leaf in ast.walk(value)
                       if isinstance(leaf, ast.Name)}
        if not value_names & params:
            continue
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                stored.add(target.attr)
    return stored


class CacheTokenChecker(Checker):
    rule = RULE

    def check(self, module: ModuleSource,
              context: ProjectContext) -> Iterator[Finding]:
        testers = context.tester_classes
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in testers:
                continue
            init = None
            token_fn = None
            other_methods: list[ast.AST] = []
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    init = item
                elif item.name == "cache_token":
                    token_fn = item
                else:
                    other_methods.append(item)
            if init is None:
                continue  # no own parameters -> inherited token covers it
            stored = _stored_from_params(init)
            reads: set[str] = set()
            for method in other_methods:
                reads |= self_attribute_names(method)
            at_risk = (stored & reads) - MECHANISM_ATTRS
            if not at_risk:
                continue
            if token_fn is None:
                yield self.finding(
                    module, init,
                    f"{node.name} stores constructor parameters "
                    f"({', '.join(sorted(at_risk))}) that other methods "
                    "read, but defines no cache_token(); the inherited "
                    "token cannot cover them")
                continue
            token_refs = self_attribute_names(token_fn)
            for attr in sorted(at_risk - token_refs):
                yield self.finding(
                    module, token_fn,
                    f"{node.name}.cache_token() omits self.{attr}, which "
                    "is set from a constructor parameter and read by "
                    "other methods; cached verdicts would survive a "
                    f"change of {attr}")
