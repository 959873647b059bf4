"""Data-integration simulation: feature sources arriving via PK-FK joins.

The paper's motivating scenario is a data engineer integrating new feature
tables against a training dataset.  :class:`FeatureSource` models one such
external table (keyed by entity id); :func:`integrate` joins a batch of
sources onto the base table, whose new columns then enter selection as
candidates.  Selection as features arrive over time, the paper's footnote,
is :class:`repro.core.online.OnlineSelector`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import Role
from repro.data.table import Table
from repro.exceptions import SchemaError


@dataclass
class FeatureSource:
    """An external feature table keyed by an entity-id column."""

    name: str
    table: Table
    key: str

    def __post_init__(self) -> None:
        if self.key not in self.table:
            raise SchemaError(
                f"source {self.name!r} lacks its key column {self.key!r}"
            )
        keys = self.table[self.key]
        if np.unique(keys).size != keys.size:
            raise SchemaError(f"source {self.name!r} key is not unique")

    @property
    def feature_names(self) -> list[str]:
        return [c for c in self.table.columns if c != self.key]


def add_entity_key(table: Table, key: str = "entity_id") -> Table:
    """Attach a synthetic primary key column (row index) to a table."""
    if key in table:
        raise SchemaError(f"table already has a column named {key!r}")
    return table.with_column(key, np.arange(table.n_rows, dtype=np.int64))


def integrate(base: Table, sources: list[FeatureSource], key: str = "entity_id"
              ) -> Table:
    """Join every source onto the base table (inner PK-FK joins).

    New columns inherit the CANDIDATE role — they are, by construction,
    features under consideration.
    """
    out = base
    for source in sources:
        if source.key != key:
            source_table = source.table.rename({source.key: key})
        else:
            source_table = source.table
        joined = out.join(source_table, on=key, how="left")
        out = joined.with_roles(
            {name: Role.CANDIDATE for name in source.feature_names}
        )
    return out
