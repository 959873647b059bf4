"""Central registry of the ``REPRO_*`` environment variables.

Every environment variable the library honours is declared here, once,
with its default and a one-line description — the single source of truth
for the README's env-var table (:func:`markdown_table`) and the only
module in ``src/repro`` allowed to touch ``os.environ``.  That exclusivity
is a *contract*, machine-checked by the ``env-registry`` lint rule
(:mod:`repro.lint.envvars`): an inline ``os.environ.get`` call site is a
future inconsistency (a second default, a missing ``.strip()``, an
undocumented knob) waiting to ship.

Conventions, applied uniformly:

* a variable set to the empty string reads as *unset* — the CI matrix
  pins matrix legs with ``REPRO_CI_TESTER: ""`` and must get the default;
* values are whitespace-stripped before use;
* numeric parsing failures raise ``ValueError`` naming the variable
  (``"{name} must be an integer, got {value!r}"``), never a bare
  ``ValueError`` from ``int()``.

Modules re-export their historical ``ENV_*`` constants from the
:class:`EnvVar` instances declared here (``ENV_TESTER =
env.CI_TESTER.name``), so no ``REPRO_*`` string literal exists outside
this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "EnvVar",
    "CI_TESTER",
    "CI_EXECUTOR",
    "CI_JOBS",
    "CI_WAVE_CELLS",
    "markdown_table",
    "read",
    "read_int",
    "registry",
    "var",
    "write",
]


@dataclass(frozen=True)
class EnvVar:
    """One registered environment variable: name, default, docstring.

    ``default`` is the *effective* string value when the variable is
    unset or empty; ``""`` means "no default" (the caller branches on an
    empty read, e.g. ``REPRO_CI_JOBS`` falling through to
    ``min(8, cpu_count)``).
    """

    name: str
    default: str
    description: str

    def raw(self) -> str:
        """The stripped value as set in the environment (no default)."""
        return os.environ.get(self.name, "").strip()

    def is_set(self) -> bool:
        """Whether the variable is set to a non-empty value."""
        return bool(self.raw())

    def read(self) -> str:
        """The stripped value, falling back to the registered default."""
        return self.raw() or self.default

    def read_int(self, minimum: int | None = None) -> int | None:
        """The value as an ``int``; ``None`` when unset with no default.

        Raises ``ValueError`` naming the variable on a non-integer value
        or one below ``minimum``.
        """
        value = self.read()
        if not value:
            return None
        try:
            parsed = int(value)
        except ValueError:
            raise ValueError(
                f"{self.name} must be an integer, got {value!r}") from None
        if minimum is not None and parsed < minimum:
            raise ValueError(
                f"{self.name} must be >= {minimum}, got {parsed}")
        return parsed

    def write(self, value: str) -> None:
        """Set the variable process-wide (inherited by spawned workers)."""
        os.environ[self.name] = str(value)

    def unset(self) -> None:
        """Remove the variable from the process environment."""
        os.environ.pop(self.name, None)


_REGISTRY: dict[str, EnvVar] = {}


def _register(name: str, default: str, description: str) -> EnvVar:
    if name in _REGISTRY:
        raise ValueError(f"duplicate env var registration: {name}")
    if not name.startswith("REPRO_"):
        raise ValueError(f"registered env vars must be REPRO_*-prefixed, "
                         f"got {name!r}")
    entry = EnvVar(name, default, description)
    _REGISTRY[name] = entry
    return entry


CI_TESTER = _register(
    "REPRO_CI_TESTER", "rcit",
    "CI-test backend family selectors construct when none is passed "
    "explicitly (`rcit`/`gtest`/`chi2`/`fisher-z`/`kcit`/`adaptive`)")

CI_EXECUTOR = _register(
    "REPRO_CI_EXECUTOR", "serial",
    "batch executor for cache-miss CI batches (`serial`/`process`) when "
    "a caller passes none")

CI_JOBS = _register(
    "REPRO_CI_JOBS", "",
    "worker count for the process executor (at least 1); unset uses "
    "`min(8, cpu_count)`")

CI_WAVE_CELLS = _register(
    "REPRO_CI_WAVE_CELLS", str(1 << 25),
    "rows×queries cell budget of one wave submission (at least 1); the "
    "default is 512 MiB at 16 bytes per cell")


def var(name: str) -> EnvVar:
    """Look up a registered variable by its full ``REPRO_*`` name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unregistered env var {name!r}; declare it in "
                       f"repro.env") from None


def registry() -> tuple[EnvVar, ...]:
    """Every registered variable, sorted by name."""
    return tuple(sorted(_REGISTRY.values(), key=lambda v: v.name))


def read(name: str) -> str:
    """:meth:`EnvVar.read` by full name (must be registered)."""
    return var(name).read()


def read_int(name: str, minimum: int | None = None) -> int | None:
    """:meth:`EnvVar.read_int` by full name (must be registered)."""
    return var(name).read_int(minimum=minimum)


def write(name: str, value: str) -> None:
    """:meth:`EnvVar.write` by full name (must be registered)."""
    var(name).write(value)


def markdown_table() -> str:
    """The README's env-var table, generated from the registry.

    ``tests/lint/test_env_registry.py`` asserts the README embeds this
    output verbatim, so docs and code cannot drift.
    """
    lines = ["| Variable | Default | Meaning |",
             "| --- | --- | --- |"]
    for entry in registry():
        default = f"`{entry.default}`" if entry.default else "*(unset)*"
        lines.append(f"| `{entry.name}` | {default} | {entry.description} |")
    return "\n".join(lines)
