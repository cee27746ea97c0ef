"""Connectors for the three simulated backends (DESIGN.md §2).

Each connector keeps the paper's three-method contract (initialize /
send_query / postprocess) and runs PolyFrame's *generated query text* on
Spark the same way: translate it to Spark SQL, make one ``spark.sql``
call, then ``toPandas``.

* :class:`SqlPPConnector` — SQL++ (AsterixDB) → transpiled to Spark SQL
* :class:`MongoConnector` — aggregation-pipeline JSON → compiled to Spark SQL
* :class:`CypherConnector` — linear Cypher → compiled to Spark SQL

All three subclass :class:`~repro.backends.spark.SparkConnector`, so they
share its registration (one temp view per ``namespace.collection``, held in
the registry :mod:`repro.backends.registry` keeps per session) and
initialization. The Mongo and Cypher engines are each a
:class:`~repro.translate.SparkCompiler` built from their connector: it binds
the session's ``spark.sql`` once, resolves each collection or label through
the connector's ``initialize``, which rejects an unknown one, and runs the
compiled text. Mongo alone also reads a collection's column names as they
are now through ``SparkConnector.get_columns``, which is not part of the
connector contract. A Mongo ``$lookup.from`` or a Cypher label resolves in
the namespace of the action.
"""
from __future__ import annotations

import json

import pandas as pd
from pyspark.sql import SparkSession

from repro.backends.spark import SparkConnector
from repro.core.rewrite import RewriteRules
from repro.cypher.engine import CypherEngine
from repro.mongo.engine import MongoEngine, MongoEngineError
from repro.sqlpp.transpile import transpile


class SqlPPConnector(SparkConnector):
    """AsterixDB stand-in: generated SQL++ is transpiled to Spark SQL."""

    language = "sqlpp"

    def preprocess(self, query: str, namespace: str, collection: str) -> str:
        return transpile(query)


class MongoConnector(SparkConnector):
    """MongoDB stand-in: pipeline-stage text is parsed as JSON and compiled
    to Spark SQL by the mini aggregation engine. Pipeline construction
    (wrapping the comma-separated stages in ``[...]``) happens here, exactly
    as the paper describes for its MongoDB connector (§III-D)."""

    language = "mongo"

    def __init__(self, spark: SparkSession, rules: RewriteRules | None = None):
        super().__init__(spark, rules)
        self.engine = MongoEngine(self)

    def preprocess(self, query: str, namespace: str, collection: str) -> str:
        return f"[ {query} ]"

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        try:
            pipeline = json.loads(query)
        except json.JSONDecodeError as exc:
            raise MongoEngineError(f"the pipeline is not valid JSON: {exc}") from exc
        return self.engine.execute(pipeline, collection, namespace).toPandas()


class CypherConnector(SparkConnector):
    """Neo4j stand-in: generated Cypher is compiled to Spark SQL. Cypher has
    no namespaces; datasets are node labels (paper q1)."""

    language = "cypher"

    def __init__(self, spark: SparkSession, rules: RewriteRules | None = None):
        super().__init__(spark, rules)
        self.engine = CypherEngine(self)

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return self.engine.execute(query, namespace).toPandas()
