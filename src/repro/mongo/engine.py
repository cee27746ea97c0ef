"""Mini MongoDB aggregation-pipeline engine, compiled to Spark SQL.

MongoDB stand-in for the reproduction (DESIGN.md §2): PolyFrame's
``mongo.ini`` rules generate genuine aggregation-pipeline JSON (the
paper's Appendix H shapes); this engine compiles that pipeline subset to
one Spark SQL query and runs it with one ``spark.sql`` call, as the SQL++
transpiler does, so the MongoDB code path runs end-to-end, is planned by
Catalyst, and its results can be oracle-checked.

Supported stages: ``$match`` (empty or ``$expr``), ``$project``
(inclusion / exclusion / computed, with MongoDB's implicit ``_id``
retention), ``$addFields``, ``$group`` (keyed or global ``_id``, with
``$min/$max/$avg/$sum/$stdDevPop/$count`` accumulators), ``$sort``,
``$limit``, ``$count``, and ``$lookup`` in the ``let`` + single-equality
correlated-pipeline form PolyFrame emits, followed at once by an
``$unwind`` of its ``as`` field. The pair compiles to one equi-join
(``INNER``, or ``LEFT`` with ``preserveNullAndEmptyArrays``) that binds
each joined document as a struct, which is how MongoDB's own optimizer
coalesces the two stages. No PolyFrame rule emits a bare ``$lookup`` or
a lone ``$unwind``, so either raises :class:`MongoEngineError`.

Document model: one flat row per document. The scan adds an ``_id``
column (``monotonically_increasing_id()``) only when a later stage or the
result reads it; PolyFrame's rules exclude it before returning results,
keeping it available mid-pipeline "because its presence in the pipeline
enables index usage" (§III-D). Joined documents carry no ``_id``. BSON
null-ordering is emulated only where the rules rely on it: a comparison
against a ``null`` literal tests missingness (``$lt null`` ≡ IS NULL,
``$gte null`` ≡ IS NOT NULL).

Compiling makes no Spark call: column lists come from the schema captured
when each collection was registered
(:attr:`repro.backends.spark.SparkConnector.columns`).
"""
from __future__ import annotations

import json
from typing import Any

from pyspark.sql import DataFrame, SparkSession

from repro.backends.spark import DEFAULT_NAMESPACE, view_name
from repro.translate import SqlQuery, quote_ident as q, sql_string

_CMP_OPS = {"$eq": "=", "$ne": "<>", "$gt": ">", "$lt": "<", "$gte": ">=", "$lte": "<="}
_ARITH_OPS = {"$add": "+", "$subtract": "-", "$multiply": "*", "$divide": "/", "$mod": "%"}
_LOGIC_OPS = {"$and": " AND ", "$or": " OR "}
_FUNCTIONS = {
    "$toUpper": "upper({})",
    "$toLower": "lower({})",
    "$abs": "abs({})",
    "$toInt": "CAST({} AS INT)",
    "$toString": "CAST({} AS STRING)",
}
_ACCUMULATORS = {
    "$sum": "sum",
    "$min": "min",
    "$max": "max",
    "$avg": "avg",
    "$stdDevPop": "stddev_pop",
    "$count": "count",  # PolyFrame extension (paper Fig. 3 row 6): non-null count
}
#: Stage ``$name`` compiles in method ``_name`` (lower case); ``$lookup``
#: compiles together with the ``$unwind`` after it.
_STAGES = {"$match", "$project", "$addFields", "$group", "$sort", "$limit", "$count", "$lookup", "$unwind"}


class MongoEngineError(ValueError):
    """The pipeline uses a construct outside the supported subset."""


def _stage(stage: Any) -> tuple[str, Any]:
    if not isinstance(stage, dict) or len(stage) != 1:
        raise MongoEngineError(f"malformed stage: {stage!r}")
    ((name, spec),) = stage.items()
    if name not in _STAGES:
        raise MongoEngineError(f"unsupported stage {name!r}")
    return name, spec


def _reads_id(stages: list[tuple[str, Any]], result_reads: bool) -> bool:
    """Whether a stage, or else the result, reads the scan's ``_id``."""
    for name, spec in stages:
        if '"$_id' in json.dumps(spec) or (name == "$sort" and "_id" in spec):
            return True
        if (
            name in ("$group", "$count")
            or (name == "$project" and spec.get("_id", 1) != 1)
            or (name == "$addFields" and "_id" in spec)
        ):
            return False  # dropped or replaced before anything read it
    return result_reads


def _unwind_spec(spec: dict | str) -> tuple[str, bool]:
    if isinstance(spec, str):
        return spec, False
    return spec["path"], spec.get("preserveNullAndEmptyArrays", False)


class MongoEngine:
    """Compiles aggregation pipelines over registered collections to Spark
    SQL and runs each with one ``spark.sql`` call.

    ``columns`` maps each registered temp view (``view_name(namespace,
    collection)``) to its column names.
    """

    def __init__(self, spark: SparkSession, columns: dict[str, list[str]]):
        self.columns = columns
        # Bound once: the engine's DataFrame is the action's only one, and a
        # wrapper later put on the session must not see its query again.
        self.sql = spark.sql

    # ------------------------------------------------------------------
    def execute(
        self, pipeline: list[dict], collection: str, namespace: str = DEFAULT_NAMESPACE
    ) -> DataFrame:
        return self.sql(self.compile(pipeline, collection, namespace))

    def compile(
        self, pipeline: list[dict], collection: str, namespace: str = DEFAULT_NAMESPACE
    ) -> str:
        """The Spark SQL text of ``pipeline`` run on ``collection``; every
        collection name resolves in ``namespace``."""
        return self._pipeline([_stage(s) for s in pipeline], collection, namespace, True).sql

    def _pipeline(self, stages, collection: str, ns: str, result_reads_id: bool) -> SqlQuery:
        query = self._scan(collection, ns, _reads_id(stages, result_reads_id))
        rest = iter(stages)
        for name, spec in rest:
            if name == "$lookup":
                query = self._lookup(query, spec, next(rest, (None, None)), ns)
            elif name == "$unwind":
                raise MongoEngineError("$unwind is supported only right after its $lookup")
            else:
                query = getattr(self, "_" + name[1:].lower())(query, spec)
        return query

    def _scan(self, collection: str, ns: str, with_id: bool) -> SqlQuery:
        view = view_name(ns, collection)
        if view not in self.columns:
            raise MongoEngineError(f"unknown collection {collection!r}")
        cols = self.columns[view]
        if not with_id:
            return SqlQuery(f"SELECT * FROM {q(view)}", list(cols))
        cols = [c for c in cols if c != "_id"]  # a stored _id is replaced
        items = [*map(q, cols), "monotonically_increasing_id() AS `_id`"]
        return SqlQuery(f"SELECT {', '.join(items)} FROM {q(view)}", [*cols, "_id"])

    # ------------------------------------------------------------------
    # expressions -> Spark SQL
    # ------------------------------------------------------------------
    def _expr(self, e: Any, env: dict[str, str] | None = None) -> str:
        if isinstance(e, str):
            if e.startswith("$$"):
                if env is None or e[2:] not in env:
                    raise MongoEngineError(f"unbound let-variable {e!r}")
                return env[e[2:]]
            if e.startswith("$"):
                return ".".join(q(part) for part in e[1:].split("."))
            return sql_string(e)
        if isinstance(e, dict):
            if len(e) != 1:
                raise MongoEngineError(f"expected single-operator expression: {e!r}")
            ((op, arg),) = e.items()
            return self._operator(op, arg, env)
        if e is None:
            return "NULL"
        if isinstance(e, bool):
            return "true" if e else "false"
        if isinstance(e, float):
            return f"{e!r}D"
        return str(e)

    def _operator(self, op: str, arg: Any, env) -> str:
        if op in _CMP_OPS:
            left_raw, right_raw = arg
            left = self._expr(left_raw, env)
            if right_raw is None:
                # BSON-order emulation: null/missing compare below values.
                if op in ("$lt", "$lte", "$eq"):
                    return f"({left} IS NULL)"
                return f"({left} IS NOT NULL)"
            return f"({left} {_CMP_OPS[op]} {self._expr(right_raw, env)})"
        if op in _ARITH_OPS:
            left, right = (self._expr(a, env) for a in arg)
            return f"({left} {_ARITH_OPS[op]} {right})"
        if op in _LOGIC_OPS:
            return "(" + _LOGIC_OPS[op].join(self._expr(a, env) for a in arg) + ")"
        if op == "$not":
            (a,) = arg if isinstance(arg, list) else [arg]
            return f"(NOT {self._expr(a, env)})"
        if op in _FUNCTIONS:
            return _FUNCTIONS[op].format(self._expr(arg, env))
        if op == "$literal" and isinstance(arg, str):
            return sql_string(arg)
        raise MongoEngineError(f"unsupported operator {op!r}")

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
        if spec.get("_id", 1) != 0 and "_id" in query.cols:
            items, cols = [q("_id")], ["_id"]  # MongoDB keeps _id unless excluded
        for key, value in spec.items():
            if key == "_id":
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
        if not keys and not aggs:
            raise MongoEngineError("$group needs a key or an accumulator")
        if keys:
            fields = ", ".join(f"{e} AS {q(k)}" for k, e in keys.items())
            items, tail = [f"struct({fields}) AS `_id`"], " GROUP BY " + ", ".join(keys.values())
        else:
            items, tail = ["0 AS `_id`"], ""
        return query.select(items + aggs, ["_id", *[k for k in spec if k != "_id"]], tail)

    def _accumulator(self, spec: dict) -> str:
        ((op, arg),) = spec.items()
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
        """``$lookup`` + ``$unwind`` of its ``as`` field as one equi-join;
        the foreign fields are joined as ``__r_<field>``."""
        as_name = spec["as"]
        # let-variables are evaluated against the OUTER document
        env = {name: self._expr(e) for name, e in spec.get("let", {}).items()}
        stages, on = [], None
        for stage in spec.get("pipeline", []):
            name, sspec = _stage(stage)
            corr = None
            if name == "$match" and isinstance(sspec, dict) and "$expr" in sspec:
                corr = self._correlation(sspec["$expr"], env)
            if corr is None:
                stages.append((name, sspec))
            else:
                on = corr
        if on is None:
            raise MongoEngineError("$lookup requires one correlated $match $expr $eq stage")
        name, uspec = unwind
        path, preserve = _unwind_spec(uspec) if name == "$unwind" else (None, False)
        if path != "$" + as_name:
            raise MongoEngineError(f"$lookup must be followed by an $unwind of '${as_name}'")
        right = self._pipeline(stages, spec["from"], ns, False)
        renamed = [f"{q(c)} AS {q('__r_' + c)}" for c in right.cols]
        doc = "struct(" + ", ".join(f"{q('__r_' + c)} AS {q(c)}" for c in right.cols) + ")"
        field, var = on
        if preserve:  # an unmatched document keeps a null field
            doc = f"IF({q('__r_' + field)} IS NULL, NULL, {doc})"
        cols = [c for c in left.cols if c != as_name] + [as_name]
        items = [q(c) for c in cols[:-1]] + [f"{doc} AS {q(as_name)}"]
        return SqlQuery(
            f"SELECT {', '.join(items)} FROM ({left.sql}) AS l "
            f"{'LEFT' if preserve else 'INNER'} JOIN "
            f"(SELECT {', '.join(renamed)} FROM ({right.sql})) AS r "
            f"ON {var} = {q('__r_' + field)}",
            cols,
        )

    def _correlation(self, expr: dict, env: dict) -> tuple[str, str] | None:
        """Detect ``{"$eq": ["$field", "$$var"]}`` (either operand order)."""
        if set(expr) != {"$eq"}:
            return None
        a, b = expr["$eq"]
        for field, var in ((a, b), (b, a)):
            if (
                isinstance(field, str)
                and field.startswith("$")
                and not field.startswith("$$")
                and isinstance(var, str)
                and var.startswith("$$")
                and var[2:] in env
            ):
                return field[1:], env[var[2:]]
        return None
