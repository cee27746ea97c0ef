"""DuckDB database connector — PostgreSQL stand-in (DESIGN.md §2).

The paper's SQL backend is PostgreSQL v12; no server is available offline,
so the PostgreSQL-dialect queries from ``sql.ini`` (double-quoted
identifiers, nested derived tables — the paper's Appendix F shapes) are
executed on an embedded DuckDB database, which accepts the same dialect
and, like PostgreSQL, has a real optimizer that flattens the nested
subqueries instead of materializing them.
"""
from __future__ import annotations

import contextlib

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
        """Load a pandas (or Spark) DataFrame as table namespace.collection.
        Each call stores a copy, so two distinct frames are two tables."""
        pdf = data if isinstance(data, pd.DataFrame) else data.toPandas()
        self.con.execute(f"CREATE SCHEMA IF NOT EXISTS {_quoted(namespace)}")
        self.con.register("_polyframe_staging", pdf)
        self._replace("TABLE", namespace, collection, "_polyframe_staging")
        self.con.unregister("_polyframe_staging")

    def alias(self, namespace: str, collection: str, target: str) -> None:
        """Make ``namespace.collection`` a second name of the registered
        ``namespace.target``: a view over its table, which stores no copy.
        DuckDB binds a view by name at each query, so it reads the rows the
        target holds then, and raises ``BinderException`` once the target
        is registered again with other columns; :meth:`register` on
        ``collection`` replaces it with a table of its own."""
        self.initialize(namespace, target)
        if collection.lower() == target.lower():  # the drop would lose the table
            raise ValueError(f"{namespace}.{collection} cannot alias itself")
        self._replace(
            "VIEW", namespace, collection, f"{_quoted(namespace)}.{_quoted(target)}"
        )

    def _replace(self, kind: str, namespace: str, collection: str, source: str) -> None:
        """``CREATE OR REPLACE {kind} namespace.collection AS SELECT * FROM
        source``. DuckDB replaces only an object of the same kind, and drops
        only one of the kind named, so a table or view of the other kind
        under the name is dropped first."""
        name = f"{_quoted(namespace)}.{_quoted(collection)}"
        other = "VIEW" if kind == "TABLE" else "TABLE"
        with contextlib.suppress(duckdb.CatalogException):  # the name holds a {kind}
            self.con.execute(f"DROP {other} IF EXISTS {name}")
        self.con.execute(f"CREATE OR REPLACE {kind} {name} AS SELECT * FROM {source}")

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
