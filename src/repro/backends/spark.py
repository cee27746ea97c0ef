"""Spark SQL database connector — the reproduction's retarget.

PolyFrame's generated Spark SQL text is executed with ``spark.sql`` over
temporary views. A dataset ``namespace.collection`` is registered as the
temp view ``{namespace}_{collection}`` (Spark temp views live in a flat
namespace), which is exactly the name the ``sparksql.ini`` q1 rule forms.
:class:`SparkConnector` is the base of every Spark-backed connector (see
``repro.backends.engines``): they share its registration and
initialization, and the session's registry of the dataset that holds each
temp view (:mod:`repro.backends.registry`); each runs an action as one
``spark.sql`` call on Spark SQL text. The session's catalog is the only
store of a view's schema.

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
name for data already registered is made by :meth:`~SparkConnector.alias`,
a temp view of the stored view's DataFrame that stores nothing, whose plan
is resolved once, when it is made, not re-analyzed in every query as a SQL
view's would be. Registering the stored view again re-points its aliases.
"""
from __future__ import annotations

import json
import math

import pandas as pd
from pyspark.sql import DataFrame as SparkDataFrame, SparkSession

from repro.backends.registry import RegistryConnector
from repro.core.connector import DatasetNotRegistered
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


class SparkConnector(RegistryConnector):
    """Executes PolyFrame's generated Spark SQL via ``spark.sql``.

    The base of every Spark-backed connector: a dataset
    ``namespace.collection`` is the temp view ``view_name(namespace,
    collection)``. Subclasses for other languages set :attr:`language`
    and translate in :meth:`preprocess` or :meth:`send_query`.

    Temp views belong to the session, and so does the registry of which
    dataset holds each view. Spark matches temp-view names without regard
    to case (under its default ``spark.sql.caseSensitive=false``), and so
    does the registry: ``A.w`` and ``a.W`` are one dataset, ``A_B.c`` and
    ``a.B_c`` collide. The registry keeps no schema: :meth:`get_columns`
    reads the view as it is now from the session's catalog.
    """

    language = "sparksql"
    _name = staticmethod(view_name)

    def __init__(self, spark: SparkSession, rules: RewriteRules | None = None):
        super().__init__(spark, rules)
        self.spark = spark
        self._catalog = spark._jsparkSession.sessionState().catalog()

    def _store(self, namespace: str, name: str, data: SparkDataFrame | pd.DataFrame) -> None:
        load_dataframe(self.spark, data).createOrReplaceTempView(name)

    def _link(self, name: str, root: str) -> None:
        # a Dataset view carries no SQL text: Spark does not re-analyze it per query
        self.spark.table(root).createOrReplaceTempView(name)

    def _exists(self, name: str) -> bool:
        return self._catalog.getTempView(name).isDefined()

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return self.spark.sql(query).toPandas()

    def get_columns(self, namespace: str, collection: str) -> list[str]:
        """The view's column names as they are now, from one catalog read;
        the Mongo compiler scans a collection with them."""
        view = self._catalog.getTempView(self._checked_name(namespace, collection))
        if not view.isDefined():
            raise DatasetNotRegistered(f"{namespace}.{collection}")
        # one JVM call: a JavaArray from fieldNames() costs a call per column.
        # The view's own record of its columns, not its plan's: the plan of
        # a view made in SQL is not resolved in the catalog.
        return [f["name"] for f in json.loads(view.get().desc().schema().json())["fields"]]
