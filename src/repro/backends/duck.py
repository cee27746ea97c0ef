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
import weakref

import duckdb
import pandas as pd

from repro.core.connector import DatasetNotRegistered, DBConnector
from repro.core.rewrite import RewriteRules


def _quoted(name: str) -> str:
    """``name`` as a double-quoted SQL identifier."""
    return '"' + name.replace('"', '""') + '"'


def _table(namespace: str, collection: str) -> str:
    """``namespace.collection`` as a qualified SQL name."""
    return f"{_quoted(namespace)}.{_quoted(collection)}"


def _key(namespace: str, collection: str) -> tuple[str, str]:
    """The registry key of a dataset: DuckDB matches names without regard to
    case."""
    return namespace.lower(), collection.lower()


#: duckdb connection -> its dataset registry: the key of each dataset known
#: to be on it -> ``(namespace, collection, target)`` as given, ``target``
#: being the collection of the same namespace it aliases, or ``None``.
#: Tables and views belong to the connection, so every connector on it
#: shares its registry.
_REGISTRIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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
        self._datasets: dict[tuple[str, str], tuple[str, str, str | None]] = (
            _REGISTRIES.setdefault(self.con, {})
        )

    def register(self, namespace: str, collection: str, data) -> None:
        """Load a pandas (or Spark) DataFrame as table namespace.collection.
        Each call stores a copy, so two distinct frames are two tables."""
        pdf = data if isinstance(data, pd.DataFrame) else data.toPandas()
        self.con.execute(f"CREATE SCHEMA IF NOT EXISTS {_quoted(namespace)}")
        self.con.register("_polyframe_staging", pdf)
        self._replace("TABLE", namespace, collection, "_polyframe_staging")
        self.con.unregister("_polyframe_staging")
        self._hold(namespace, collection, None)

    def alias(self, namespace: str, collection: str, target: str) -> None:
        """Make ``namespace.collection`` a second name of the registered
        ``namespace.target``: a view over its table, which stores no copy.
        DuckDB binds a view by name at each query, so it reads the rows the
        target holds then; :meth:`register` of the target makes the view
        again, so it also reads the target's columns then. :meth:`register`
        on ``collection`` replaces it with a table of its own."""
        self.initialize(namespace, target)
        key, chain = _key(namespace, collection), _key(namespace, target)
        while chain != key and self._datasets[chain][2] is not None:
            chain = _key(namespace, self._datasets[chain][2])
        if chain == key:  # the drop would lose the table the alias reads
            raise ValueError(f"{namespace}.{collection} cannot alias itself")
        self._replace("VIEW", namespace, collection, _table(namespace, target))
        self._hold(namespace, collection, target)

    def _hold(self, namespace: str, collection: str, target: str | None) -> None:
        """Record ``namespace.collection`` as an alias of ``target`` (``None``:
        a dataset of its own), and make each alias of it a view over it
        again: a view keeps the columns it was made with."""
        key = _key(namespace, collection)
        self._datasets[key] = (namespace, collection, target)
        for ns, alias, of in list(self._datasets.values()):
            if of is not None and _key(ns, of) == key:
                self._replace("VIEW", ns, alias, _table(ns, of))
                self._hold(ns, alias, of)

    def _replace(self, kind: str, namespace: str, collection: str, source: str) -> None:
        """``CREATE OR REPLACE {kind} namespace.collection AS SELECT * FROM
        source``. DuckDB replaces only an object of the same kind, and drops
        only one of the kind named, so a table or view of the other kind
        under the name is dropped first."""
        name = _table(namespace, collection)
        other = "VIEW" if kind == "TABLE" else "TABLE"
        with contextlib.suppress(duckdb.CatalogException):  # the name holds a {kind}
            self.con.execute(f"DROP {other} IF EXISTS {name}")
        self.con.execute(f"CREATE OR REPLACE {kind} {name} AS SELECT * FROM {source}")

    def initialize(self, namespace: str, collection: str) -> None:
        """Verify ``namespace.collection`` from the connection's registry,
        which sends DuckDB no statement. A dataset it does not hold, such as
        a table made on ``con`` directly, is bound in a query that reads no
        row, once: binding resolves tables and views alike, and matches names
        without regard to case, as every query on them does. A dataset
        dropped on ``con`` directly stays held, so its first action raises."""
        key = _key(namespace, collection)
        if key in self._datasets:
            return
        try:
            self.con.sql(f"SELECT * FROM {_table(namespace, collection)} LIMIT 0")
        except duckdb.CatalogException:
            raise DatasetNotRegistered(f"{namespace}.{collection}") from None
        self._datasets[key] = (namespace, collection, None)

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return self.con.execute(query).fetchdf()
