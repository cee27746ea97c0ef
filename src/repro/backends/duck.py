"""DuckDB database connector — PostgreSQL stand-in (DESIGN.md §2).

The paper's SQL backend is PostgreSQL v12; no server is available offline,
so the PostgreSQL-dialect queries from ``sql.ini`` (double-quoted
identifiers, nested derived tables — the paper's Appendix F shapes) are
executed on an embedded DuckDB database, which accepts the same dialect
and, like PostgreSQL, has a real optimizer that flattens the nested
subqueries instead of materializing them. Tables and views belong to the
``duckdb`` connection, and so does their registry (:mod:`repro.backends.registry`).
"""
from __future__ import annotations

import contextlib

import duckdb
import pandas as pd

from repro.backends.registry import RegistryConnector
from repro.core.rewrite import RewriteRules


def _quoted(name: str) -> str:
    """``name`` as a double-quoted SQL identifier."""
    return '"' + name.replace('"', '""') + '"'


def _table(namespace: str, collection: str) -> str:
    """``namespace.collection`` as a qualified SQL name."""
    return f"{_quoted(namespace)}.{_quoted(collection)}"


class DuckDBConnector(RegistryConnector):
    """Executes PolyFrame's generated SQL on an embedded DuckDB, where a
    dataset ``namespace.collection`` is the table or view of that name."""

    language = "sql"
    _name = staticmethod(_table)

    def __init__(
        self,
        con: "duckdb.DuckDBPyConnection | None" = None,
        rules: RewriteRules | None = None,
    ):
        self.con = con if con is not None else duckdb.connect()
        super().__init__(self.con, rules)

    def _store(self, namespace: str, name: str, data) -> None:
        pdf = data if isinstance(data, pd.DataFrame) else data.toPandas()
        self.con.execute(f"CREATE SCHEMA IF NOT EXISTS {_quoted(namespace)}")
        self.con.register("_polyframe_staging", pdf)
        self._replace("TABLE", name, "_polyframe_staging")
        self.con.unregister("_polyframe_staging")

    def _link(self, name: str, root: str) -> None:
        """A view over the root's table: DuckDB binds it by name at each
        query, in the columns it was made with."""
        self._replace("VIEW", name, root)

    def _replace(self, kind: str, name: str, source: str) -> None:
        """``CREATE OR REPLACE {kind} name AS SELECT * FROM source``. DuckDB
        replaces only an object of the same kind, and drops only one of the
        kind named, so a table or view of the other kind under the name is
        dropped first."""
        other = "VIEW" if kind == "TABLE" else "TABLE"
        with contextlib.suppress(duckdb.CatalogException):  # the name holds a {kind}
            self.con.execute(f"DROP {other} IF EXISTS {name}")
        self.con.execute(f"CREATE OR REPLACE {kind} {name} AS SELECT * FROM {source}")

    def _exists(self, name: str) -> bool:
        """Binds ``name`` in a query that reads no row, which resolves tables
        and views alike, in any case, as every query on them does."""
        try:
            self.con.sql(f"SELECT * FROM {name} LIMIT 0")
        except duckdb.CatalogException:
            return False
        return True

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return self.con.execute(query).fetchdf()
