"""Tabular data substrate: schemas, tables, synthetic generators, loaders."""

from repro.data.io import read_csv, write_csv
from repro.data.schema import ColumnSpec, Kind, Role, TableSchema
from repro.data.table import Table

__all__ = ["read_csv", "write_csv", "ColumnSpec", "Kind", "Role",
           "TableSchema", "Table"]
