"""Column schemas and fairness roles for tabular data.

A :class:`ColumnSpec` describes one column (name, dtype kind, role); a
:class:`TableSchema` is an ordered collection of specs with uniqueness and
role-consistency checks.  Roles encode the fairness vocabulary of the paper:

* ``SENSITIVE`` — protected attributes ``S`` (race, gender, age...),
* ``ADMISSIBLE`` — attributes ``A`` through which ``S`` may legitimately
  influence the outcome,
* ``CANDIDATE`` — the pool ``X`` of features under consideration for
  integration,
* ``TARGET`` — the label ``Y``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.exceptions import SchemaError


class Role(enum.Enum):
    """Fairness role of a column, following the paper's notation."""

    SENSITIVE = "sensitive"
    ADMISSIBLE = "admissible"
    CANDIDATE = "candidate"
    TARGET = "target"
    OTHER = "other"


class Kind(enum.Enum):
    """Statistical kind of a column, used to dispatch CI tests."""

    DISCRETE = "discrete"
    CONTINUOUS = "continuous"
    BINARY = "binary"

    @property
    def is_discrete(self) -> bool:
        """``True`` for kinds handled by contingency-table tests."""
        return self in (Kind.DISCRETE, Kind.BINARY)


@dataclass(frozen=True)
class ColumnSpec:
    """Immutable description of a single column."""

    name: str
    kind: Kind = Kind.CONTINUOUS
    role: Role = Role.OTHER

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be a non-empty string")

    def with_role(self, role: Role) -> "ColumnSpec":
        """Return a copy of this spec with a different role."""
        return ColumnSpec(self.name, self.kind, role)


@dataclass
class TableSchema:
    """Ordered, validated collection of :class:`ColumnSpec`.

    >>> schema = TableSchema([ColumnSpec("s", Kind.BINARY, Role.SENSITIVE),
    ...                       ColumnSpec("y", Kind.BINARY, Role.TARGET)])
    >>> schema.sensitive
    ['s']
    """

    columns: list[ColumnSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        dupes: set[str] = set()
        for column in self.columns:
            if column.name in seen:
                dupes.add(column.name)
            seen.add(column.name)
        if dupes:
            raise SchemaError(f"duplicate column names: {sorted(dupes)}")
        targets = self.by_role(Role.TARGET)
        if len(targets) > 1:
            raise SchemaError(f"at most one target column allowed, got {targets}")

    # -- lookup ----------------------------------------------------------

    def __iter__(self) -> Iterator[ColumnSpec]:
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    @property
    def names(self) -> list[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]

    def spec(self, name: str) -> ColumnSpec:
        """Return the spec for ``name`` or raise :class:`SchemaError`."""
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"unknown column: {name!r}")

    def by_role(self, role: Role) -> list[str]:
        """Names of all columns with the given role, in order."""
        return [c.name for c in self.columns if c.role == role]

    @property
    def sensitive(self) -> list[str]:
        """Names of sensitive columns ``S``."""
        return self.by_role(Role.SENSITIVE)

    @property
    def admissible(self) -> list[str]:
        """Names of admissible columns ``A``."""
        return self.by_role(Role.ADMISSIBLE)

    @property
    def candidates(self) -> list[str]:
        """Names of candidate columns ``X``."""
        return self.by_role(Role.CANDIDATE)

    @property
    def target(self) -> str | None:
        """Name of the target column ``Y`` or ``None``."""
        targets = self.by_role(Role.TARGET)
        return targets[0] if targets else None

    # -- construction ----------------------------------------------------

    def select(self, names: Iterable[str]) -> "TableSchema":
        """Schema restricted to ``names`` (kept in the requested order)."""
        return TableSchema([self.spec(n) for n in names])

    def add(self, spec: ColumnSpec) -> "TableSchema":
        """Schema extended with one more column."""
        return TableSchema(self.columns + [spec])

    def rename(self, mapping: dict[str, str]) -> "TableSchema":
        """Schema with columns renamed via ``mapping`` (missing keys kept)."""
        return TableSchema(
            [ColumnSpec(mapping.get(c.name, c.name), c.kind, c.role) for c in self.columns]
        )

    def with_roles(self, roles: dict[str, Role]) -> "TableSchema":
        """Schema with roles reassigned for the named columns."""
        unknown = set(roles) - set(self.names)
        if unknown:
            raise SchemaError(f"cannot assign roles to unknown columns: {sorted(unknown)}")
        return TableSchema(
            [c.with_role(roles[c.name]) if c.name in roles else c for c in self.columns]
        )
