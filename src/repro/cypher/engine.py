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

Compilation model: the query splits into clauses at each line that starts
with ``MATCH``, ``WITH`` or ``RETURN``, and each clause is read by one
pattern. The first clause must be ``MATCH (t: Label)`` and the last
``RETURN``; each clause between them becomes one ``SELECT`` over the query
so far, bound to the SQL table alias ``t`` as ``(...) t``, so a Cypher
property ``t.x`` is the Spark SQL column ``t.x`` as written. A clause
keeps the line breaks the rules write, and only those. Clauses:

* ``MATCH (t: Label)``               — the registered label's view, as ``t``
* ``MATCH (r: Label)`` and, on the next line, ``WHERE t.a = r.b`` — bind a
  second node (paper's join, q10): the WHERE turns the conceptual
  cartesian product into an equi-join (what Neo4j's planner does for such
  patterns), with the label's view as ``r``
* ``WITH t`` / ``WITH t WHERE p`` / ``WITH t ORDER BY e [DESC]``
* ``WITH t{items}``                  — map projection
  (``.*`` is ``t.*``, a bare ``r`` is ``struct(r.*)``; ``'alias': expr``
  computes, its key always quoted)
* ``WITH {items} AS t``              — aggregation with Cypher's implicit
  grouping: non-aggregate items are the grouping keys
* ``RETURN t`` / ``RETURN COUNT(*) AS t``, then ``LIMIT n`` on a line of
  its own

A string literal holds no line break: the rules write a control character
as ``\\u00XX`` (``RewriteRules.literal``).

Leaf expressions keep their ``t.``/``r.`` references; only functions are
renamed, to the Spark SQL function of the same call shape (``stDevP``→
``stddev_pop``, ``apoc.convert.toInteger``/``toString``→ the cast
functions ``int``/``string``), never inside string literals. Compiling
keeps no column list: Spark resolves ``t.x``, ``r.x`` and ``*`` against the
views as they are when the query is analyzed. Each label is checked by the ``initialize`` of the
connector the engine serves, which reads the catalog only for a label the
session's registry does not hold yet.
"""
from __future__ import annotations

import re

from pyspark.sql import DataFrame

from repro.backends.spark import SparkConnector, view_name
from repro.core.connector import DatasetNotRegistered
from repro.translate import outside_literals, quote_ident as q

_AGG_HEAD_RE = re.compile(r"^\s*(min|max|avg|count|stddev_pop)\s*\(", re.IGNORECASE)
#: A clause starts at each line that starts with MATCH, WITH or RETURN, so a
#: join's WHERE line and a LIMIT line belong to the clause above them. The
#: clause patterns write each line break as ``\n``; ``.`` matches none.
_CLAUSE_START_RE = re.compile(r"\n(?=(?:MATCH|WITH|RETURN)\b)")
_ANCHOR_RE = re.compile(r"MATCH \(t: (\w+)\)")
_JOIN_RE = re.compile(r"MATCH \(r: (\w+)\)\nWHERE (.+)")
_WITH_RE = re.compile(r"WITH (.+)")
_RETURN_RE = re.compile(r"RETURN (.+)(?:\nLIMIT (\d+))?")
#: Cypher function -> the Spark SQL function of the same call shape
_FUNCTIONS = {
    "apoc.convert.toInteger": "int",
    "apoc.convert.toString": "string",
    "stDevP": "stddev_pop",
}
_FUNCTION_RE = re.compile(r"\b(" + "|".join(map(re.escape, _FUNCTIONS)) + r")\s*\(")


class CypherEngineError(ValueError):
    """The query uses a construct outside the supported subset."""


def _split_top_level(text: str) -> list[str]:
    """Split on commas outside quotes/parens/braces/brackets."""
    parts, depth, quote, start = [], 0, None, 0
    escaped = False  # the character before was a backslash inside quotes
    for i, ch in enumerate(text):
        if escaped:
            escaped = False
        elif quote:
            if ch == "\\":
                escaped = True
            elif ch == quote:
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


def _to_sql(expr: str) -> str:
    """Translate a leaf Cypher expression into a Spark SQL expression: each
    function of :data:`_FUNCTIONS` is renamed, never inside a string literal."""
    return outside_literals(
        expr, lambda text: _FUNCTION_RE.sub(lambda m: _FUNCTIONS[m[1]] + "(", text)
    )


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
        text = "\n".join(ln.strip() for ln in query.split("\n") if ln.strip())
        first, *clauses = _CLAUSE_START_RE.split(text)
        if not (m := _ANCHOR_RE.fullmatch(first)):
            raise CypherEngineError(f"query must start with MATCH (t: Label), got {first!r}")
        src = f"{self._view(m.group(1), namespace)} t"  # the FROM item binding t (and r)
        if not clauses or not (ret := _RETURN_RE.fullmatch(clauses[-1])):
            raise CypherEngineError("query must end with RETURN, and LIMIT on the next line")
        for clause in clauses[:-1]:
            if m := _WITH_RE.fullmatch(clause):
                src = f"({self._with(src, m.group(1))}) t"
            elif m := _JOIN_RE.fullmatch(clause):
                src = self._join(src, self._view(m.group(1), namespace), m.group(2))
            else:
                raise CypherEngineError(f"unsupported clause: {clause!r}")
        sql = self._return(src, ret.group(1))
        return f"{sql} LIMIT {int(ret.group(2))}" if ret.group(2) else sql

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
        items, tail = "t.*", ""
        if m := re.fullmatch(r"t\s*\{(.*)\}", body):
            items = self._map_projection(m.group(1))
        elif m := re.fullmatch(r"\{(.*)\}\s+AS\s+t", body, re.IGNORECASE):
            items, tail = self._aggregate(m.group(1))
        elif m := re.fullmatch(r"t\s+ORDER\s+BY\s+(.+?)(\s+DESC)?", body, re.IGNORECASE):
            tail = f" ORDER BY {_to_sql(m.group(1))} {'DESC' if m.group(2) else 'ASC'}"
        elif m := re.fullmatch(r"t\s+WHERE\s+(.+)", body, re.IGNORECASE):
            tail = f" WHERE {_to_sql(m.group(1))}"
        elif body.strip() != "t":
            raise CypherEngineError(f"unsupported WITH body: {body!r}")
        return f"SELECT {items} FROM {src}{tail}"

    def _item(self, item: str) -> tuple[str | None, str]:
        """Parse one projection item: ``'alias': expr`` / ``.*`` (alias None)."""
        if item.strip() == ".*":
            return None, ".*"
        m = re.fullmatch(r"'([^']*)'\s*:\s*(.+)", item)
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
