"""Mini Cypher engine (Neo4j stand-in), compiled to Spark SQL.

PolyFrame's ``cypher.ini`` rules generate linear Cypher of exactly the
paper's Appendix-G shape: one ``MATCH`` anchoring a node variable ``t``,
a chain of ``WITH`` clauses (each consuming the previous one — the
incremental query formation), and a final ``RETURN`` (+ ``LIMIT``).
This engine compiles that subset to one Spark SQL query and runs it with
one ``spark.sql`` call, as the SQL++ transpiler does, so the Cypher code
path runs end-to-end offline (DESIGN.md §2) and is planned by Catalyst.
It accepts the forms that ``cypher.ini``'s rules emit, and raises
:class:`CypherEngineError` for any other.

Compilation model: each clause becomes one ``SELECT`` over the query so
far, bound to the SQL table alias ``t`` as ``(...) t``, so a Cypher
property ``t.x`` is the Spark SQL column ``t.x`` as written. Clauses:

* ``MATCH (t: Label)``               — the registered label's view, as ``t``
* ``MATCH (r: Label)``               — bind a second node (paper's join,
  q10); the ``WHERE t.a = r.b`` that must follow it turns the conceptual
  cartesian product into an equi-join (what Neo4j's planner does for such
  patterns), with the label's view as ``r``
* ``WITH t`` / ``WITH t WHERE p`` / ``WITH t ORDER BY e [DESC]``
* ``WITH t{items}`` / ``WITH DISTINCT t{items}`` — map projection
  (``.*`` is ``t.*``, a bare ``r`` is ``struct(r.*)``; ``'alias': expr``
  computes, its key always quoted)
* ``WITH {items} AS t``              — aggregation with Cypher's implicit
  grouping: non-aggregate items are the grouping keys
* ``RETURN t`` / ``RETURN COUNT(*) AS t`` / ``LIMIT n``

Leaf expressions keep their ``t.``/``r.`` references; only functions are
translated (``stDevP``→``stddev_pop``, ``apoc.convert.toInteger``→``CAST``),
never inside string literals. Compiling keeps no column list: Spark
resolves ``t.x``, ``r.x`` and ``*`` against the views as they are when the
query is analyzed. Each label is checked by the ``initialize`` of the
connector the engine serves, which reads the catalog only for a label the
session's registry does not hold yet.
"""
from __future__ import annotations

import re

from pyspark.sql import DataFrame

from repro.backends.spark import SparkConnector, view_name
from repro.core.connector import DatasetNotRegistered
from repro.translate import outside_literals, quote_ident as q, replace_call

_AGG_HEAD_RE = re.compile(r"^\s*(min|max|avg|count|stddev_pop)\s*\(", re.IGNORECASE)


class CypherEngineError(ValueError):
    """The query uses a construct outside the supported subset."""


def _split_top_level(text: str) -> list[str]:
    """Split on commas outside quotes/parens/braces/brackets."""
    parts, depth, quote, start = [], 0, None, 0
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"`":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _translate(expr: str) -> str:
    out = replace_call(expr, "apoc.convert.toInteger", "CAST({0} AS INT)")
    out = replace_call(out, "apoc.convert.toString", "CAST({0} AS STRING)")
    return re.sub(r"\bstDevP\s*\(", "stddev_pop(", out)


def _to_sql(expr: str) -> str:
    """Translate a leaf Cypher expression into a Spark SQL expression."""
    return outside_literals(expr, _translate)


class CypherEngine:
    """Compiles PolyFrame's linear Cypher over the labels of ``connector``
    to Spark SQL and runs each query with one ``spark.sql`` call."""

    def __init__(self, connector: SparkConnector):
        self.connector = connector
        # Bound once: the engine's DataFrame is the action's only one, and a
        # wrapper later put on the session must not see its query again.
        self.sql = connector.spark.sql

    # ------------------------------------------------------------------
    def execute(self, query: str, namespace: str) -> DataFrame:
        return self.sql(self.compile(query, namespace))

    def compile(self, query: str, namespace: str) -> str:
        """The Spark SQL text of ``query``; labels resolve in ``namespace``."""
        src: str | None = None  # the FROM item binding t (and r after a join)
        sql: str | None = None  # the RETURN clause's SELECT
        pending_match: str | None = None  # view awaiting its join WHERE
        for line in (ln.strip() for ln in query.strip().splitlines()):
            if not line:
                continue
            if sql is not None:  # LIMIT may trail a RETURN on its own line
                if not (m := re.fullmatch(r"LIMIT\s+(\d+)", line, re.IGNORECASE)):
                    raise CypherEngineError(f"only LIMIT may follow RETURN, got {line!r}")
                sql += f" LIMIT {int(m.group(1))}"
            elif m := re.fullmatch(r"MATCH\s*\(\s*(\w+)\s*:\s*(\w+)\s*\)", line):
                var, view = m.group(1), self._view(m.group(2), namespace)
                if src is None:
                    if var != "t":
                        raise CypherEngineError("anchor variable must be 't'")
                    src = f"{view} t"
                else:
                    if var != "r":
                        raise CypherEngineError("secondary variable must be 'r'")
                    pending_match = view
            elif src is None:
                raise CypherEngineError("query must start with MATCH")
            elif (pending_match is not None) != line.upper().startswith("WHERE "):
                raise CypherEngineError(
                    f"WHERE goes right after MATCH (r: ...), and only there: {line!r}"
                )
            elif pending_match is not None:
                src, pending_match = self._join(src, pending_match, line[6:]), None
            elif line.upper().startswith("WITH "):
                src = f"({self._with(src, line[5:].strip())}) t"
            elif line.upper().startswith("RETURN "):
                sql = self._return(src, line[7:].strip())
            else:
                raise CypherEngineError(f"unsupported clause: {line!r}")
        if sql is None:
            raise CypherEngineError("query must end with RETURN")
        return sql

    def _view(self, label: str, ns: str) -> str:
        try:
            self.connector.initialize(ns, label)
        except DatasetNotRegistered:
            raise CypherEngineError(f"unknown label {label!r}") from None
        return q(view_name(ns, label))

    # ------------------------------------------------------------------
    def _join(self, src: str, view: str, pred: str) -> str:
        """``MATCH (r: L) WHERE t.a = r.b`` — compiled to an equi-join."""
        m = re.fullmatch(r"t\.(\w+)\s*=\s*r\.(\w+)", pred.strip())
        if m is None:
            raise CypherEngineError(f"join WHERE must be t.a = r.b, got {pred!r}")
        return f"{src} INNER JOIN {view} r ON t.{q(m.group(1))} = r.{q(m.group(2))}"

    def _with(self, src: str, body: str) -> str:
        distinct = ""
        if body.upper().startswith("DISTINCT "):
            distinct, body = "DISTINCT ", body[9:].strip()
        items, tail = "t.*", ""
        if m := re.fullmatch(r"t\s*\{(.*)\}", body, re.DOTALL):
            items = self._map_projection(m.group(1))
        elif m := re.fullmatch(r"\{(.*)\}\s+AS\s+t", body, re.DOTALL | re.IGNORECASE):
            items, tail = self._aggregate(m.group(1))
        elif m := re.fullmatch(
            r"t\s+ORDER\s+BY\s+(.+?)(\s+DESC)?", body, re.IGNORECASE | re.DOTALL
        ):
            tail = f" ORDER BY {_to_sql(m.group(1))} {'DESC' if m.group(2) else 'ASC'}"
        elif m := re.fullmatch(r"t\s+WHERE\s+(.+)", body, re.IGNORECASE | re.DOTALL):
            tail = f" WHERE {_to_sql(m.group(1))}"
        elif body.strip() != "t":
            raise CypherEngineError(f"unsupported WITH body: {body!r}")
        return f"SELECT {distinct}{items} FROM {src}{tail}"

    def _item(self, item: str) -> tuple[str | None, str]:
        """Parse one projection item: ``'alias': expr`` / ``.*`` (alias None)."""
        if item.strip() == ".*":
            return None, ".*"
        m = re.fullmatch(r"'([^']*)'\s*:\s*(.+)", item, re.DOTALL)
        if m is None:
            raise CypherEngineError(f"unsupported projection item: {item!r}")
        return m.group(1), m.group(2).strip()

    def _map_projection(self, items: str) -> str:
        sql = []
        for item in _split_top_level(items):
            alias, expr = self._item(item)
            if alias is None:  # .*
                sql.append("t.*")
            elif expr == "r":  # the joined node, as one nested value
                sql.append(f"struct(r.*) AS {q(alias)}")
            else:
                sql.append(f"{_to_sql(expr)} AS {q(alias)}")
        return ", ".join(sql)

    def _aggregate(self, items: str) -> tuple[str, str]:
        """``WITH {..} AS t`` — implicit grouping by non-aggregate items:
        the SELECT items and the GROUP BY tail."""
        keys: list[tuple[str, str]] = []
        aggs: list[tuple[str, str]] = []
        for item in _split_top_level(items):
            alias, expr = self._item(item)
            if alias is None:
                raise CypherEngineError(".* is not valid in an aggregating WITH")
            sql = _to_sql(expr)
            (aggs if _AGG_HEAD_RE.match(sql) else keys).append((alias, sql))
        if not aggs:
            raise CypherEngineError("aggregating WITH needs an aggregate item")
        tail = " GROUP BY " + ", ".join(sql for _, sql in keys) if keys else ""
        return ", ".join(f"{sql} AS {q(a)}" for a, sql in keys + aggs), tail

    def _return(self, src: str, body: str) -> str:
        if body.strip() == "t":
            return f"SELECT t.* FROM {src}"
        if m := re.fullmatch(r"COUNT\s*\(\s*\*\s*\)\s+AS\s+(\w+)", body, re.IGNORECASE):
            return f"SELECT count(1) AS {q(m.group(1))} FROM {src}"
        raise CypherEngineError(f"unsupported RETURN body: {body!r}")
