"""Spark SQL database connector — the reproduction's retarget.

PolyFrame's generated Spark SQL text is executed with ``spark.sql`` over
temporary views. A dataset ``namespace.collection`` is registered as the
temp view ``{namespace}_{collection}`` (Spark temp views live in a flat
namespace), which is exactly the name the ``sparksql.ini`` q1 rule forms.
:class:`SparkConnector` is the base of every Spark-backed connector (see
``repro.backends.engines``): they share its registration and
initialization, and one registry per session of the dataset
that holds each temp view; each runs an action as one ``spark.sql`` call
on Spark SQL text. The session's catalog is the only store of a view's
schema.

Catalyst supplies the "efficient query optimizer" the paper requires of
every PolyFrame backend: the deeply nested subqueries produced by
incremental formation are collapsed by CollapseProject and
PushDownPredicates before execution (see tests/test_catalyst_plans.py).

Loading rule, shared by every Spark-backed connector (:func:`load_dataframe`):
pandas data is loaded into Spark once, when it is registered, in as few
partitions as its size needs; a Spark DataFrame is used exactly as given.
As in the paper, an action is then one query over data already in the
backend. A bare ``createDataFrame(pdf)`` would instead keep every row
inside each query plan as a ``LocalRelation``, which Catalyst re-folds in
the driver on every action. Each :meth:`~SparkConnector.register` loads
its data again, so two distinct frames are two stored copies; a second
name for data already registered is made by
:meth:`~SparkConnector.alias`, a temp view of the first view's DataFrame
that stores nothing. Its plan is resolved once, when it is made, not
re-parsed and re-analyzed in every query that names it as a SQL view
would be; so the session's registry remembers each alias's target, and
registering the target again re-points the alias to the new DataFrame.
"""
from __future__ import annotations

import json
import math
import weakref

import pandas as pd
from pyspark.sql import DataFrame as SparkDataFrame, SparkSession

from repro.core.connector import DatasetNotRegistered, DBConnector
from repro.core.rewrite import RewriteRules


def load_dataframe(
    spark: SparkSession, data: SparkDataFrame | pd.DataFrame
) -> SparkDataFrame:
    """The Spark DataFrame a connector registers for ``data``.

    pandas data is loaded once, here: ``localCheckpoint(eager=True)``
    materializes the rows in Spark's block manager and cuts the lineage,
    so plans scan the stored partitions instead of carrying the rows as a
    ``LocalRelation`` that the optimizer evaluates on every action.
    ``cache()`` is not used: cached plans still pay the cache manager's
    plan matching and the columnar decode on every action.

    The rows are stored in :func:`_partition_count` partitions: one per
    ``spark.sql.adaptive.advisoryPartitionSizeInBytes`` of pandas memory,
    at most one per core. ``createDataFrame`` alone would keep one
    partition per core, or per Arrow batch, however small the data; then
    every aggregate, sort and join plans an ``Exchange``, which AQE runs
    as a Spark job of its own. Data in one partition already has every
    distribution those operators need, so an action on it runs as one job
    of one task. ``coalesce`` merges partitions without a shuffle.

    A Spark DataFrame is returned unchanged, so parquet-backed or
    ``cache()``d inputs keep their own scans and partitions.
    """
    if isinstance(data, SparkDataFrame):
        return data
    df = spark.createDataFrame(data).coalesce(_partition_count(spark, data))
    return df.localCheckpoint(eager=True)


def _partition_count(spark: SparkSession, data: pd.DataFrame) -> int:
    """Partitions for ``data``: ``ceil(bytes / advisory partition size)``,
    clamped to ``[1, defaultParallelism]``. The advisory size is the one
    AQE already coalesces shuffle output to (64 MB by default)."""
    advisory = spark.conf.get("spark.sql.adaptive.advisoryPartitionSizeInBytes")
    target = spark._jvm.org.apache.spark.network.util.JavaUtils.byteStringAsBytes(
        advisory
    )
    n = math.ceil(data.memory_usage(deep=True).sum() / target)
    return min(max(n, 1), spark.sparkContext.defaultParallelism)


def view_name(namespace: str, collection: str) -> str:
    """Flat temp-view name for a namespaced dataset."""
    return f"{namespace}_{collection}"


#: SparkSession -> its dataset registry: each temp view's name in lower case,
#: the key Spark's catalog matches it by, -> ``(namespace, collection,
#: target)``: the dataset that holds the view, and the collection of the same
#: namespace it aliases, or ``None``. Temp views belong to the session, so
#: every Spark-backed connector on it shares its registry.
_REGISTRIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class SparkConnector(DBConnector):
    """Executes PolyFrame's generated Spark SQL via ``spark.sql``.

    The base of every Spark-backed connector: a dataset
    ``namespace.collection`` is the temp view ``view_name(namespace,
    collection)``. Subclasses for other languages set :attr:`language`
    and translate in :meth:`preprocess` or :meth:`send_query`.

    Temp views belong to the session, and so does the registry of which
    dataset holds each view: :meth:`register`, :meth:`alias` and the first
    successful :meth:`initialize` of a dataset write it, and every connector
    on the session raises ``ValueError`` for a dataset whose view another
    dataset holds. Spark matches temp-view names without regard to case
    (under its default ``spark.sql.caseSensitive=false``), and so does the
    registry:
    ``A.w`` and ``a.W`` are one dataset, ``A_B.c`` and ``a.B_c`` collide.
    The registry keeps no schema: :meth:`get_columns` reads the view as it
    is now from the session's catalog.
    """

    language = "sparksql"

    def __init__(self, spark: SparkSession, rules: RewriteRules | None = None):
        super().__init__(rules)
        self.spark = spark
        self._holders: dict[str, tuple[str, str, str | None]] = _REGISTRIES.setdefault(spark, {})
        self._catalog = spark._jsparkSession.sessionState().catalog()

    def register(
        self, namespace: str, collection: str, data: SparkDataFrame | pd.DataFrame
    ) -> None:
        """Expose a Spark (or pandas) DataFrame as a PolyFrame dataset."""
        view = self._view(namespace, collection)
        self._bind(view, (namespace, collection, None), load_dataframe(self.spark, data))

    def alias(self, namespace: str, collection: str, target: str) -> None:
        """Make ``namespace.collection`` a second name of the registered
        ``namespace.target``: a temp view of the target view's DataFrame,
        which stores no copy and carries no SQL text, so Spark does not
        re-analyze it in each query. :meth:`register` of the target re-points
        it, so it reads the target as registered then, in its rows and
        columns; :meth:`register` on ``collection`` replaces it with a copy
        of its own."""
        self.initialize(namespace, target)
        view, source = self._view(namespace, collection), self._view(namespace, target)
        chain = source.lower()
        while chain != view.lower() and self._holders[chain][2] is not None:
            chain = view_name(namespace, self._holders[chain][2]).lower()
        if chain == view.lower():  # the view would read itself
            raise ValueError(f"{namespace}.{collection} cannot alias itself")
        self._bind(view, (namespace, collection, target), self.spark.table(source))

    def _bind(self, view: str, dataset: tuple, df: SparkDataFrame) -> None:
        """Make ``view`` the temp view of ``df`` and record its ``(namespace,
        collection, target)``; then re-point each alias of it to ``df``."""
        df.createOrReplaceTempView(view)
        self._holders[view.lower()] = dataset
        for ns, alias, of in list(self._holders.values()):
            if of is not None and view_name(ns, of).lower() == view.lower():
                self._bind(view_name(ns, alias), (ns, alias, of), df)

    def initialize(self, namespace: str, collection: str) -> None:
        view = self._view(namespace, collection)
        if view.lower() not in self._holders:  # a held dataset needs no catalog read
            if not self._catalog.getTempView(view).isDefined():
                raise DatasetNotRegistered(f"{namespace}.{collection}")
            self._holders[view.lower()] = (namespace, collection, None)  # made in Spark directly

    def _view(self, namespace: str, collection: str) -> str:
        """The temp view of ``namespace.collection``, unless the registry
        gives it to another dataset: then ``ValueError``."""
        view = view_name(namespace, collection)
        held_ns, held, _ = self._holders.get(view.lower(), (namespace, collection, None))
        # the two views match, so the datasets do when their namespaces do
        if held_ns.lower() != namespace.lower():
            raise ValueError(f"{namespace}.{collection}: {held_ns}.{held} holds view {view!r}")
        return view

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return self.spark.sql(query).toPandas()

    def get_columns(self, namespace: str, collection: str) -> list[str]:
        """The view's column names as they are now, from one catalog read;
        the Mongo compiler scans a collection with them."""
        view = self._catalog.getTempView(self._view(namespace, collection))
        if not view.isDefined():
            raise DatasetNotRegistered(f"{namespace}.{collection}")
        # one JVM call: a JavaArray from fieldNames() costs a call per column.
        # The view's own record of its columns, not its plan's: the plan of
        # a view made in SQL is not resolved in the catalog.
        return [f["name"] for f in json.loads(view.get().desc().schema().json())["fields"]]
