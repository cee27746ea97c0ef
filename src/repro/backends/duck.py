"""DuckDB database connector — PostgreSQL stand-in (DESIGN.md §2).

The paper's SQL backend is PostgreSQL v12; no server is available offline,
so the PostgreSQL-dialect queries from ``sql.ini`` (double-quoted
identifiers, nested derived tables — the paper's Appendix F shapes) are
executed on an embedded DuckDB database, which accepts the same dialect
and, like PostgreSQL, has a real optimizer that flattens the nested
subqueries instead of materializing them.
"""
from __future__ import annotations

import duckdb
import pandas as pd

from repro.core.connector import DatasetNotRegistered, DBConnector
from repro.core.rewrite import RewriteRules


def _quoted(name: str) -> str:
    """``name`` as a double-quoted SQL identifier."""
    return '"' + name.replace('"', '""') + '"'


class DuckDBConnector(DBConnector):
    """Executes PolyFrame's generated SQL on an embedded DuckDB."""

    language = "sql"

    def __init__(
        self,
        con: "duckdb.DuckDBPyConnection | None" = None,
        rules: RewriteRules | None = None,
    ):
        super().__init__(rules)
        self.con = con if con is not None else duckdb.connect()

    def register(self, namespace: str, collection: str, data) -> None:
        """Load a pandas (or Spark) DataFrame as table namespace.collection."""
        pdf = data if isinstance(data, pd.DataFrame) else data.toPandas()
        self.con.execute(f"CREATE SCHEMA IF NOT EXISTS {_quoted(namespace)}")
        self.con.register("_polyframe_staging", pdf)
        self.con.execute(
            f"CREATE OR REPLACE TABLE {_quoted(namespace)}.{_quoted(collection)} "
            "AS SELECT * FROM _polyframe_staging"
        )
        self.con.unregister("_polyframe_staging")

    def initialize(self, namespace: str, collection: str) -> None:
        """Bind ``namespace.collection`` in a query that reads no row.
        Binding resolves tables and views alike, and matches names without
        regard to case, as every query on them does."""
        table = f"{_quoted(namespace)}.{_quoted(collection)}"
        try:
            self.con.sql(f"SELECT * FROM {table} LIMIT 0")
        except duckdb.CatalogException:
            raise DatasetNotRegistered(f"{namespace}.{collection}") from None

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return self.con.execute(query).fetchdf()
