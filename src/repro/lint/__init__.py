"""Contract linter: AST-level enforcement of the engine's determinism
and caching invariants.

``python -m repro lint [paths]`` runs five purpose-built checks over
the source tree (stdlib :mod:`ast` only — no external lint framework):

========  =================  ==================================================
Rule      Name               Contract enforced
========  =================  ==================================================
RL101     cache-token        every behaviour-affecting constructor parameter
                             of a ``CITester`` appears in ``cache_token()``
RL102     seed-discipline    ``ci/``/``core/`` randomness flows through
                             ``repro.rng``, never ``np.random.*``
RL103     executor-purity    executor code never writes accounting state
                             or reorders results
RL104     fusion-width       fused kernels stack queries along a new leading
                             axis, never into one wide 2-D GEMM operand
RL106     env-registry       ``REPRO_*`` variables are read only through
                             :mod:`repro.env`
========  =================  ==================================================

Suppress a deliberate exception with ``# repro-lint: disable=<rule>`` on
the finding's line (rule id or name), or
``# repro-lint: disable-file=<rule>`` for a whole file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.core import (Checker, Finding, Rule, iter_python_files,
                             run_checkers)
from repro.lint.envvars import EnvRegistryChecker
from repro.lint.executors import ExecutorPurityChecker
from repro.lint.fusion import FusionWidthChecker
from repro.lint.seeds import SeedDisciplineChecker
from repro.lint.tokens import CacheTokenChecker

__all__ = [
    "Checker", "Finding", "LintRun", "Rule", "all_checkers",
    "default_target", "lint_paths", "rules",
]

_CHECKER_TYPES = (
    CacheTokenChecker,
    SeedDisciplineChecker,
    ExecutorPurityChecker,
    FusionWidthChecker,
    EnvRegistryChecker,
)


def all_checkers() -> list[Checker]:
    """Fresh instances of every registered checker, in rule-id order."""
    return [cls() for cls in _CHECKER_TYPES]


def rules() -> tuple[Rule, ...]:
    """The registered rules, in id order (doc/table generation hook)."""
    return tuple(cls.rule for cls in _CHECKER_TYPES)


def default_target() -> Path:
    """The package's own source tree — what CI lints."""
    return Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class LintRun:
    """Outcome of one lint invocation."""

    findings: tuple[Finding, ...]
    n_files: int

    @property
    def ok(self) -> bool:
        return not self.findings


def lint_paths(paths: Iterable[str | Path],
               checkers: Sequence[Checker] | None = None) -> LintRun:
    """Lint files/directories with the given (default: all) checkers."""
    files = list(iter_python_files(paths))
    findings = run_checkers(files, list(checkers) if checkers is not None
                            else all_checkers())
    return LintRun(findings=tuple(findings), n_files=len(files))
