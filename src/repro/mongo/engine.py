"""Mini MongoDB aggregation-pipeline engine, compiled to Spark SQL.

MongoDB stand-in for the reproduction (DESIGN.md §2): PolyFrame's
``mongo.ini`` rules generate genuine aggregation-pipeline JSON (the
paper's Appendix H shapes); this engine compiles that pipeline subset to
one Spark SQL query and runs it with one ``spark.sql`` call, as the SQL++
transpiler does, so the MongoDB code path runs end-to-end, is planned by
Catalyst, and its results can be oracle-checked.

The engine accepts the forms that ``mongo.ini``'s rules emit, and raises
:class:`MongoEngineError` for any other. Stages: ``$match`` (empty or
``$expr``), ``$project`` (inclusion / exclusion / computed, with MongoDB's
implicit ``_id`` retention), ``$addFields``, ``$group`` (keyed or global
``_id``, with at least one ``$min/$max/$avg/$stdDevPop/$count``
accumulator), ``$sort``, ``$limit``, ``$count``, and q10's ``$lookup``:
its pipeline ends with the correlation ``{"$match": {"$expr": {"$eq":
["$field", "$$var"]}}}`` of a ``let`` variable, and the stage after it is
``{"$unwind": {"path": "$<as>", "preserveNullAndEmptyArrays": false}}``.
Only that correlation reads a ``let`` variable; ``$$var`` anywhere else is
an error. The ``$lookup`` and its ``$unwind`` compile to one inner
equi-join that binds each joined document as a struct, which is how
MongoDB's own optimizer coalesces the two stages.

Document model: one flat row per document, and ``_id`` is data, as in
MongoDB. It exists only where MongoDB puts it: a collection's stored
``_id`` column, or the ``_id`` that ``$group`` creates. The scan reads
the collection as it is, so a frame has the same columns as on every other
backend. PolyFrame's rules exclude ``_id`` before returning results,
keeping it available mid-pipeline "because its presence in the pipeline
enables index usage" (§III-D).

Expressions are written with ``sparksql.ini``'s rules: each operator is one
rule key (``_RULES``) and each JSON scalar a ``RewriteRules.literal``, so
operators and literals read as on the sparksql backend. A comparison with
``null`` keeps its BSON meaning, null and missing sorting below every value,
through ``is_missing`` (``$lt``, ``$lte``, ``$eq``) and ``not_missing``.

Compiling makes one catalog read per scanned collection: the engine asks
the connector it serves, whose ``initialize`` rejects an unknown collection
and whose ``get_columns`` gives the collection's column names as they are
now, so a view replaced elsewhere is read with its new schema.
"""
from __future__ import annotations

from functools import reduce
from typing import Any

from pyspark.sql import DataFrame

from repro.backends.spark import SparkConnector, view_name
from repro.core.connector import DatasetNotRegistered
from repro.core.rewrite import load_language, required_variables
from repro.translate import quote_ident as q

#: Mongo expression operator -> the ``sparksql.ini`` rule that writes it
_RULES = {
    "$eq": "eq", "$ne": "ne", "$gt": "gt", "$lt": "lt", "$gte": "ge", "$lte": "le",
    "$add": "add", "$subtract": "sub", "$multiply": "mul", "$divide": "div", "$mod": "trunc_mod",
    "$and": "and", "$or": "or", "$not": "not", "$toUpper": "upper", "$toLower": "lower",
    "$abs": "abs", "$toInt": "to_int", "$toString": "to_str",
}
_NULL_RULES = dict.fromkeys(("$lt", "$lte", "$eq"), "is_missing")
_NULL_RULES |= dict.fromkeys(("$gt", "$gte", "$ne"), "not_missing")
_ACCUMULATORS = {
    "$min": "min",
    "$max": "max",
    "$avg": "avg",
    "$stdDevPop": "stddev_pop",
    "$count": "count",  # PolyFrame extension (paper Fig. 3 row 6): non-null count
}
#: Stage ``$name`` compiles in method ``_name`` (lower case); ``$lookup``
#: compiles together with the ``$unwind`` after it.
_STAGES = {"$match", "$project", "$addFields", "$group", "$sort", "$limit", "$count", "$lookup", "$unwind"}


class SqlQuery:
    """A Spark SQL query built one stage at a time: its text and its output
    columns. The compiler tracks the columns itself, because ``_id`` in an
    inclusion ``$project``, an exclusion ``$project``, ``$addFields`` and
    ``$lookup`` need the field list."""

    def __init__(self, sql: str, cols: list[str]):
        self.sql, self.cols = sql, cols

    def select(self, items: list[str], cols: list[str], tail: str = "") -> "SqlQuery":
        """``SELECT items FROM (this) tail``, with output columns ``cols``."""
        return SqlQuery(f"SELECT {', '.join(items)} FROM ({self.sql}){tail}", cols)

    def keep(self, tail: str) -> "SqlQuery":
        """``SELECT * FROM (this) tail``: same columns (WHERE, ORDER BY, LIMIT)."""
        return SqlQuery(f"SELECT * FROM ({self.sql}){tail}", self.cols)


class MongoEngineError(ValueError):
    """The pipeline uses a construct outside the supported subset."""


def _single(spec: Any, what: str) -> tuple[str, Any]:
    """The one ``name: value`` pair of a stage, an operator node or an
    accumulator."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise MongoEngineError(f"malformed {what}, not one operator: {spec!r}")
    return next(iter(spec.items()))


def _stage(stage: Any) -> tuple[str, Any]:
    name, spec = _single(stage, "stage")
    if name not in _STAGES:
        raise MongoEngineError(f"unsupported stage {name!r}")
    return name, spec


class MongoEngine:
    """Compiles aggregation pipelines over the collections of ``connector``
    to Spark SQL and runs each with one ``spark.sql`` call."""

    def __init__(self, connector: SparkConnector):
        self.connector = connector
        # Bound once: the engine's DataFrame is the action's only one, and a
        # wrapper later put on the session must not see its query again.
        self.sql = connector.spark.sql
        #: Spark SQL's expression and literal syntax, declared in ``sparksql.ini``
        self.spark_sql = load_language("sparksql")

    # ------------------------------------------------------------------
    def execute(self, pipeline: list[dict], collection: str, namespace: str) -> DataFrame:
        return self.sql(self.compile(pipeline, collection, namespace))

    def compile(self, pipeline: list[dict], collection: str, namespace: str) -> str:
        """The Spark SQL text of ``pipeline`` run on ``collection``; every
        collection name resolves in ``namespace``."""
        return self._pipeline([_stage(s) for s in pipeline], collection, namespace).sql

    def _pipeline(self, stages, collection: str, ns: str) -> SqlQuery:
        query = self._scan(collection, ns)
        rest = iter(stages)
        for name, spec in rest:
            if name == "$lookup":
                query = self._lookup(query, spec, next(rest, (None, None)), ns)
            elif name == "$unwind":
                raise MongoEngineError("$unwind is supported only right after its $lookup")
            else:
                query = getattr(self, "_" + name[1:].lower())(query, spec)
        return query

    def _scan(self, collection: str, ns: str) -> SqlQuery:
        try:
            self.connector.initialize(ns, collection)
        except DatasetNotRegistered:
            raise MongoEngineError(f"unknown collection {collection!r}") from None
        cols = self.connector.get_columns(ns, collection)
        return SqlQuery(f"SELECT * FROM {q(view_name(ns, collection))}", cols)

    # ------------------------------------------------------------------
    # expressions -> Spark SQL
    # ------------------------------------------------------------------
    def _expr(self, e: Any) -> str:
        if isinstance(e, dict):
            return self._operator(*_single(e, "expression"))
        if isinstance(e, str) and e.startswith("$$"):  # only $lookup's correlation reads one
            raise MongoEngineError(f"unbound let-variable {e!r}")
        if isinstance(e, str) and e.startswith("$"):
            return ".".join(q(part) for part in e[1:].split("."))
        try:
            return self.spark_sql.literal(e)
        except (TypeError, ValueError) as exc:  # an array, a non-finite double
            raise MongoEngineError(f"unsupported operand {e!r}: {exc}") from None

    def _operator(self, op: str, arg: Any) -> str:
        # one node: its sparksql.ini rule in one pair of parentheses, so it
        # stays one operand of the node around it
        if op == "$literal" and isinstance(arg, str):
            return self.spark_sql.literal(arg)
        if op not in _RULES:
            raise MongoEngineError(f"unsupported operator {op!r}")
        rule, args = _RULES[op], arg if isinstance(arg, list) else [arg]
        if op in _NULL_RULES and len(args) == 2 and args[1] is None:
            rule, args = _NULL_RULES[op], args[:1]
        sql = [self._expr(a) for a in args]
        if rule in ("and", "or") and sql:
            return f"({reduce(lambda x, y: self.spark_sql.apply(rule, left=x, right=y), sql)})"
        arity = 2 if "right" in required_variables(self.spark_sql.get(rule)) else 1
        if len(sql) != arity:
            raise MongoEngineError(f"{op} takes {arity} operand(s): {arg!r}")
        return f"({self.spark_sql.apply(rule, left=sql[0], right=sql[-1], statement=sql[0])})"

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def _match(self, query: SqlQuery, spec: dict) -> SqlQuery:
        if spec == {}:
            return query
        if set(spec) == {"$expr"}:
            return query.keep(f" WHERE CAST({self._expr(spec['$expr'])} AS BOOLEAN)")
        raise MongoEngineError(f"only empty/$expr $match supported: {spec!r}")

    def _project(self, query: SqlQuery, spec: dict) -> SqlQuery:
        if all(v == 0 for v in spec.values()):
            # exclusion projection: drop the listed fields, keep the rest
            cols = [c for c in query.cols if c not in spec]
            return query.select([q(c) for c in cols], cols)
        items, cols = [], []
        if "_id" not in spec and "_id" in query.cols:
            items, cols = [q("_id")], ["_id"]  # MongoDB keeps _id unless excluded
        for key, value in spec.items():
            if key == "_id" and value == 0:
                continue
            if value == 1:
                items.append(q(key))
            elif isinstance(value, dict):
                items.append(f"{self._expr(value)} AS {q(key)}")
            elif value == 0:
                raise MongoEngineError("cannot mix exclusion with inclusion in $project")
            else:
                raise MongoEngineError(f"bad projection value for {key!r}: {value!r}")
            cols.append(key)
        return query.select(items, cols)

    def _addfields(self, query: SqlQuery, spec: dict) -> SqlQuery:
        new = {key: f"{self._expr(value)} AS {q(key)}" for key, value in spec.items()}
        cols = query.cols + [k for k in spec if k not in query.cols]
        return query.select([new.get(c, q(c)) for c in cols], cols)

    def _group(self, query: SqlQuery, spec: dict) -> SqlQuery:
        if "_id" not in spec:
            raise MongoEngineError("$group requires _id")
        id_spec = spec["_id"]
        if not isinstance(id_spec, dict):
            raise MongoEngineError(f"unsupported _id spec: {id_spec!r}")
        keys = {k: self._expr(v) for k, v in id_spec.items()}
        aggs = [f"{self._accumulator(v)} AS {q(k)}" for k, v in spec.items() if k != "_id"]
        if not aggs:
            raise MongoEngineError("$group needs an accumulator")
        if keys:
            fields = ", ".join(f"{e} AS {q(k)}" for k, e in keys.items())
            items, tail = [f"struct({fields}) AS `_id`"], " GROUP BY " + ", ".join(keys.values())
        else:
            items, tail = ["0 AS `_id`"], ""
        return query.select(items + aggs, ["_id", *[k for k in spec if k != "_id"]], tail)

    def _accumulator(self, spec: dict) -> str:
        op, arg = _single(spec, "accumulator")
        if op not in _ACCUMULATORS:
            raise MongoEngineError(f"unsupported accumulator {op!r}")
        return f"{_ACCUMULATORS[op]}({self._expr(arg)})"

    def _sort(self, query: SqlQuery, spec: dict) -> SqlQuery:
        order = ", ".join(f"{q(k)} {'ASC' if d == 1 else 'DESC'}" for k, d in spec.items())
        return query.keep(f" ORDER BY {order}")

    def _limit(self, query: SqlQuery, spec: int) -> SqlQuery:
        return query.keep(f" LIMIT {int(spec)}")

    def _count(self, query: SqlQuery, spec: str) -> SqlQuery:
        return query.select([f"count(1) AS {q(spec)}"], [spec])

    def _lookup(self, left: SqlQuery, spec: dict, unwind: tuple, ns: str) -> SqlQuery:
        """``$lookup`` + ``$unwind`` of its ``as`` field as one inner
        equi-join. The pipeline's last stage is q10's correlation, and the
        stages before it are the right side. Each foreign document is joined
        as one struct, ``__doc``."""
        as_name, let, pipeline = spec["as"], spec.get("let", {}), spec.get("pipeline", [])
        match pipeline[-1:]:
            case [{"$match": {"$expr": {"$eq": [str() as field, str() as var]}}} as last] if (
                last == {"$match": {"$expr": {"$eq": [field, var]}}}
                and field.startswith("$")
                and not field.startswith("$$")
                and var.startswith("$$")
                and var[2:] in let
            ):
                # the let-variable is evaluated against the OUTER document
                on = f"{self._expr(let[var[2:]])} = `__doc`.{q(field[1:])}"
            case _:
                raise MongoEngineError(
                    "$lookup's pipeline must end with its correlated stage "
                    '{"$match": {"$expr": {"$eq": ["$field", "$$var"]}}}'
                )
        if unwind != ("$unwind", {"path": "$" + as_name, "preserveNullAndEmptyArrays": False}):
            raise MongoEngineError(f"$lookup must be followed by an inner $unwind of '${as_name}'")
        right = self._pipeline([_stage(s) for s in pipeline[:-1]], spec["from"], ns)
        cols = [c for c in left.cols if c != as_name] + [as_name]
        items = [q(c) for c in cols[:-1]] + [f"`__doc` AS {q(as_name)}"]
        return SqlQuery(
            f"SELECT {', '.join(items)} FROM ({left.sql}) AS l "
            "INNER JOIN "
            f"(SELECT struct(*) AS `__doc` FROM ({right.sql})) AS r ON {on}",
            cols,
        )
