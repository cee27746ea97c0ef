"""Connectors for the three simulated backends (DESIGN.md §2).

Each connector keeps the paper's three-method contract (initialize /
send_query / postprocess) and executes PolyFrame's *generated query text*
on a local substrate:

* :class:`SqlPPConnector` — SQL++ (AsterixDB) → transpiled to Spark SQL
* :class:`MongoConnector` — aggregation-pipeline JSON → mini Mongo engine
* :class:`CypherConnector` — linear Cypher → mini Cypher interpreter

All three return pandas DataFrames, like every PolyFrame backend.
"""
from __future__ import annotations

import json

import pandas as pd
from pyspark.sql import SparkSession

from repro.backends.spark import load_dataframe, view_name
from repro.core.connector import DatasetNotRegistered, DBConnector
from repro.core.rewrite import RewriteRules
from repro.cypher.engine import CypherEngine
from repro.mongo.engine import MongoEngine
from repro.sqlpp.transpile import transpile


class SqlPPConnector(DBConnector):
    """AsterixDB stand-in: generated SQL++ is transpiled to Spark SQL."""

    language = "sqlpp"

    def __init__(self, spark: SparkSession, rules: RewriteRules | None = None):
        super().__init__(rules)
        self.spark = spark
        self._registered: set[tuple[str, str]] = set()

    def register(self, namespace: str, collection: str, data) -> None:
        df = load_dataframe(self.spark, data)
        df.createOrReplaceTempView(view_name(namespace, collection))
        self._registered.add((namespace, collection))

    def initialize(self, namespace: str, collection: str) -> None:
        if (namespace, collection) not in self._registered:
            raise DatasetNotRegistered(f"{namespace}.{collection}")

    def preprocess(self, query: str, namespace: str, collection: str) -> str:
        return transpile(query)

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return self.spark.sql(query).toPandas()

    def get_columns(self, namespace: str, collection: str) -> list[tuple[str, str]]:
        return self.spark.table(view_name(namespace, collection)).dtypes


class MongoConnector(DBConnector):
    """MongoDB stand-in: pipeline-stage text is parsed as JSON and run by
    the mini aggregation engine. Pipeline construction (wrapping the
    comma-separated stages in ``[...]``) happens here, exactly as the
    paper describes for its MongoDB connector (§III-D)."""

    language = "mongo"

    def __init__(self, spark: SparkSession, rules: RewriteRules | None = None):
        super().__init__(rules)
        self.spark = spark
        self.engine = MongoEngine({})
        self._namespaces: dict[tuple[str, str], str] = {}

    def register(self, namespace: str, collection: str, data) -> None:
        df = load_dataframe(self.spark, data)
        self.engine.registry[collection] = df
        self._namespaces[(namespace, collection)] = collection

    def initialize(self, namespace: str, collection: str) -> None:
        if (namespace, collection) not in self._namespaces:
            raise DatasetNotRegistered(f"{namespace}.{collection}")

    def preprocess(self, query: str, namespace: str, collection: str) -> str:
        return f"[ {query} ]"

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        pipeline = json.loads(query)
        return self.engine.execute(pipeline, collection).toPandas()

    def get_columns(self, namespace: str, collection: str) -> list[tuple[str, str]]:
        return self.engine.registry[collection].dtypes


class CypherConnector(DBConnector):
    """Neo4j stand-in: generated Cypher runs on the mini interpreter."""

    language = "cypher"

    def __init__(self, spark: SparkSession, rules: RewriteRules | None = None):
        super().__init__(rules)
        self.spark = spark
        self.engine = CypherEngine({})
        self._labels: set[str] = set()

    def register(self, namespace: str, collection: str, data) -> None:
        df = load_dataframe(self.spark, data)
        # Cypher has no namespaces; datasets are node labels (paper q1).
        self.engine.registry[collection] = df
        self._labels.add(collection)

    def initialize(self, namespace: str, collection: str) -> None:
        if collection not in self._labels:
            raise DatasetNotRegistered(f"{namespace}.{collection}")

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return self.engine.execute(query).toPandas()

    def get_columns(self, namespace: str, collection: str) -> list[tuple[str, str]]:
        return self.engine.registry[collection].dtypes
