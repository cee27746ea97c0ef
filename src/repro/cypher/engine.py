"""Mini Cypher engine (Neo4j stand-in), compiled to Spark SQL.

PolyFrame's ``cypher.ini`` rules generate linear Cypher of exactly the
paper's Appendix-G shape: one ``MATCH`` anchoring a node variable ``t``,
a chain of ``WITH`` clauses (each consuming the previous one — the
incremental query formation), and a final ``RETURN`` (+ ``LIMIT``).
This engine compiles that subset to one Spark SQL query and runs it with
one ``spark.sql`` call, as the SQL++ transpiler does, so the Cypher code
path runs end-to-end offline (DESIGN.md §2) and is planned by Catalyst.

Compilation model: each clause wraps the query so far in one more
``SELECT``, whose columns are the properties of the map/node currently
bound to ``t``. Clauses:

* ``MATCH (t: Label)``               — scan the registered label
* ``MATCH (r: Label)``               — bind a second node (paper's join,
  q10); the following ``WHERE t.a = r.b`` turns the conceptual cartesian
  product into an equi-join (what Neo4j's planner does for such patterns);
  ``r``'s properties are carried with an ``__r_`` prefix
* ``WITH t`` / ``WITH t WHERE p`` / ``WITH t ORDER BY e [DESC]``
* ``WITH t{items}`` / ``WITH DISTINCT t{items}`` — map projection
  (``.*`` keeps everything; ``'alias': expr`` computes)
* ``WITH {items} AS t``              — aggregation with Cypher's implicit
  grouping: non-aggregate items are the grouping keys
* ``RETURN t`` / ``RETURN COUNT(*) AS t`` / ``LIMIT n``

Leaf expressions are translated textually to Spark SQL (``t.attr`` →
column, ``stDevP``→``stddev_pop``, ``apoc.convert.toInteger``→``CAST``),
never inside string literals. Compiling makes no Spark call: column lists
come from the schema captured when each label was registered
(:attr:`repro.backends.spark.SparkConnector.columns`).
"""
from __future__ import annotations

import re

from pyspark.sql import DataFrame, SparkSession

from repro.backends.spark import DEFAULT_NAMESPACE, view_name
from repro.translate import SqlQuery, outside_literals, quote_ident as q, replace_call

_AGG_HEAD_RE = re.compile(r"^\s*(min|max|avg|count|stddev_pop|sum)\s*\(", re.IGNORECASE)


class CypherEngineError(ValueError):
    """The query uses a construct outside the supported subset."""


def _split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` outside quotes/parens/braces/brackets."""
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
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _translate(expr: str) -> str:
    out = replace_call(expr, "apoc.convert.toInteger", "CAST({0} AS INT)")
    out = replace_call(out, "apoc.convert.toString", "CAST({0} AS STRING)")
    out = re.sub(r"\bstDevP\s*\(", "stddev_pop(", out)
    out = re.sub(r"\bt\.(\w+)", r"\1", out)  # t.attr -> column attr
    return re.sub(r"\br\.(\w+)", r"__r_\1", out)  # r.attr -> prefixed column


def _to_sql(expr: str) -> str:
    """Translate a leaf Cypher expression into a Spark SQL expression."""
    return outside_literals(expr, _translate)


class CypherEngine:
    """Compiles PolyFrame's linear Cypher over registered labels to Spark
    SQL and runs each query with one ``spark.sql`` call.

    ``columns`` maps each registered temp view (``view_name(namespace,
    label)``) to its column names.
    """

    def __init__(self, spark: SparkSession, columns: dict[str, list[str]]):
        self.columns = columns
        # Bound once: the engine's DataFrame is the action's only one, and a
        # wrapper later put on the session must not see its query again.
        self.sql = spark.sql

    # ------------------------------------------------------------------
    def execute(self, query: str, namespace: str = DEFAULT_NAMESPACE) -> DataFrame:
        return self.sql(self.compile(query, namespace))

    def compile(self, query: str, namespace: str = DEFAULT_NAMESPACE) -> str:
        """The Spark SQL text of ``query``; labels resolve in ``namespace``."""
        out: SqlQuery | None = None
        pending_match: str | None = None  # label awaiting its join WHERE
        for line in (ln.strip() for ln in query.strip().splitlines()):
            if not line:
                continue
            # LIMIT may trail a RETURN on its own line
            if m := re.fullmatch(r"LIMIT\s+(\d+)", line, re.IGNORECASE):
                out = self._need(out).keep(f" LIMIT {int(m.group(1))}")
            elif m := re.fullmatch(r"MATCH\s*\(\s*(\w+)\s*:\s*(\w+)\s*\)", line):
                var, label = m.group(1), m.group(2)
                if out is None:
                    if var != "t":
                        raise CypherEngineError("anchor variable must be 't'")
                    view = q(view_name(namespace, label))
                    out = SqlQuery(f"SELECT * FROM {view}", self._columns(label, namespace))
                else:
                    if var != "r":
                        raise CypherEngineError("secondary variable must be 'r'")
                    pending_match = label
            elif line.upper().startswith("WHERE "):
                pred = line[6:]
                if pending_match is not None:
                    out = self._join(self._need(out), pending_match, namespace, pred)
                    pending_match = None
                else:
                    out = self._need(out).keep(f" WHERE {_to_sql(pred)}")
            elif line.upper().startswith("WITH "):
                out = self._with(self._need(out), line[5:].strip())
            elif line.upper().startswith("RETURN "):
                out = self._return(self._need(out), line[7:].strip())
            else:
                raise CypherEngineError(f"unsupported clause: {line!r}")
        return self._need(out).sql

    def _need(self, out: SqlQuery | None) -> SqlQuery:
        if out is None:
            raise CypherEngineError("query must start with MATCH")
        return out

    def _columns(self, label: str, ns: str) -> list[str]:
        try:
            return list(self.columns[view_name(ns, label)])
        except KeyError:
            raise CypherEngineError(f"unknown label {label!r}") from None

    # ------------------------------------------------------------------
    def _join(self, left: SqlQuery, label: str, ns: str, pred: str) -> SqlQuery:
        """``MATCH (r: L) WHERE t.a = r.b`` — compiled to an equi-join."""
        m = re.fullmatch(r"t\.(\w+)\s*=\s*r\.(\w+)", pred.strip())
        if m is None:
            raise CypherEngineError(f"join WHERE must be t.a = r.b, got {pred!r}")
        right = self._columns(label, ns)
        renamed = ", ".join(f"{q(c)} AS {q('__r_' + c)}" for c in right)
        return SqlQuery(
            f"SELECT * FROM ({left.sql}) AS l INNER JOIN "
            f"(SELECT {renamed} FROM {q(view_name(ns, label))}) AS r "
            f"ON {q(m.group(1))} = {q('__r_' + m.group(2))}",
            left.cols + ["__r_" + c for c in right],
        )

    def _with(self, query: SqlQuery, body: str) -> SqlQuery:
        distinct = False
        if body.upper().startswith("DISTINCT "):
            distinct, body = True, body[9:].strip()
        if m := re.fullmatch(r"t\s*\{(.*)\}", body, re.DOTALL):
            out = self._map_projection(query, m.group(1))
        elif m := re.fullmatch(r"\{(.*)\}\s+AS\s+t", body, re.DOTALL | re.IGNORECASE):
            out = self._aggregate(query, m.group(1))
        elif m := re.fullmatch(
            r"t\s+ORDER\s+BY\s+(.+?)(\s+DESC)?", body, re.IGNORECASE | re.DOTALL
        ):
            direction = "DESC" if m.group(2) else "ASC"
            out = query.keep(f" ORDER BY {_to_sql(m.group(1))} {direction}")
        elif m := re.fullmatch(r"t\s+WHERE\s+(.+)", body, re.IGNORECASE | re.DOTALL):
            out = query.keep(f" WHERE {_to_sql(m.group(1))}")
        elif body.strip() == "t":
            out = query
        else:
            raise CypherEngineError(f"unsupported WITH body: {body!r}")
        return SqlQuery(f"SELECT DISTINCT * FROM ({out.sql})", out.cols) if distinct else out

    def _item(self, item: str) -> tuple[str | None, str]:
        """Parse one projection item: ``'alias': expr`` / `` `alias`: expr``
        / ``.*`` (alias None)."""
        if item.strip() == ".*":
            return None, ".*"
        m = re.fullmatch(r"(?:'([^']*)'|`([^`]*)`|(\w+))\s*:\s*(.+)", item, re.DOTALL)
        if m is None:
            raise CypherEngineError(f"unsupported projection item: {item!r}")
        alias = m.group(1) or m.group(2) or m.group(3)
        return alias, m.group(4).strip()

    def _map_projection(self, query: SqlQuery, items: str) -> SqlQuery:
        sql, cols = [], []
        r_cols = [c for c in query.cols if c.startswith("__r_")]
        for item in _split_top_level(items):
            alias, expr = self._item(item)
            if alias is None:  # .*
                own = [c for c in query.cols if not c.startswith("__r_")]
                sql.extend(q(c) for c in own)
                cols.extend(own)
                continue
            if expr == "r":
                if not r_cols:
                    raise CypherEngineError("no 'r' binding in scope")
                fields = ", ".join(f"{q(c)} AS {q(c[len('__r_'):])}" for c in r_cols)
                sql.append(f"struct({fields}) AS {q(alias)}")
            else:
                sql.append(f"{_to_sql(expr)} AS {q(alias)}")
            cols.append(alias)
        return query.select(sql, cols)

    def _aggregate(self, query: SqlQuery, items: str) -> SqlQuery:
        """``WITH {..} AS t`` — implicit grouping by non-aggregate items."""
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
        pairs = keys + aggs
        return query.select([f"{sql} AS {q(a)}" for a, sql in pairs], [a for a, _ in pairs], tail)

    def _return(self, query: SqlQuery, body: str) -> SqlQuery:
        if body.strip() == "t":
            cols = [c for c in query.cols if not c.startswith("__r_")]
            return query.select([q(c) for c in cols], cols)
        if m := re.fullmatch(r"COUNT\s*\(\s*\*\s*\)\s+AS\s+(\w+)", body, re.IGNORECASE):
            return query.select([f"count(1) AS {q(m.group(1))}"], [m.group(1)])
        raise CypherEngineError(f"unsupported RETURN body: {body!r}")
