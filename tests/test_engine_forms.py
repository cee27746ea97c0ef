"""The Mongo and Cypher stand-ins raise their typed error for a form that
no bundled ``mongo.ini`` or ``cypher.ini`` rule emits (DESIGN.md §2); the
forms the rules emit are run by ``test_mongo_engine.py``,
``test_cypher_engine.py`` and the Appendix tests."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.backends.spark import SparkConnector
from repro.cypher.engine import CypherEngine, CypherEngineError
from repro.mongo.engine import MongoEngine, MongoEngineError

NS = "Forms"


def _lookup(correlation: list) -> dict:
    """q10's ``$lookup`` of ``d`` as ``r``, correlated by ``correlation``."""
    pipeline = [{"$match": {}}, {"$match": {"$expr": {"$eq": correlation}}}]
    return {"$lookup": {"from": "d", "as": "r", "let": {"lv": "$a"}, "pipeline": pipeline}}


INNER_UNWIND = {"$unwind": {"path": "$r", "preserveNullAndEmptyArrays": False}}

#: form -> a pipeline or query that no bundled rule emits
REMOVED = {
    "mongo-sum": [{"$group": {"_id": {}, "s": {"$sum": "$a"}}}],
    "mongo-group-without-accumulator": [{"$group": {"_id": {"a": "$a"}}}],
    "mongo-left-unwind": [
        _lookup(["$a", "$$lv"]),
        {"$unwind": {"path": "$r", "preserveNullAndEmptyArrays": True}},
    ],
    "mongo-unwind-string-path": [_lookup(["$a", "$$lv"]), {"$unwind": "$r"}],
    "mongo-variable-first-correlation": [_lookup(["$$lv", "$a"]), INNER_UNWIND],
    "cypher-bare-where": "MATCH (t: c)\nWHERE t.a > 1\nRETURN t",
    "cypher-match-without-where": "MATCH (t: c)\nMATCH (r: d)\nRETURN t",
    "cypher-backtick-key": "MATCH (t: c)\nWITH t{`x`: t.a}\nRETURN t",
    "cypher-bare-key": "MATCH (t: c)\nWITH t{x: t.a}\nRETURN t",
    "cypher-sum": "MATCH (t: c)\nWITH { 's': sum(t.a) } AS t\nRETURN t",
    "cypher-with-distinct": "MATCH (t: c)\nWITH DISTINCT t{'a': t.a}\nRETURN t",
    "cypher-limit-before-return": "MATCH (t: c)\nLIMIT 2\nRETURN t",
    "cypher-two-returns": "MATCH (t: c)\nRETURN t\nRETURN t",
    "cypher-match-t-twice": "MATCH (t: c)\nMATCH (t: c)\nRETURN t",
    "cypher-limit-on-return-line": "MATCH (t: c)\nRETURN t LIMIT 2",
    "cypher-where-on-match-line": "MATCH (t: c)\nMATCH (r: d) WHERE t.a = r.a\nRETURN t",
    "mongo-correlation-not-last": [
        {
            "$lookup": {
                "from": "d",
                "as": "r",
                "let": {"lv": "$a"},
                "pipeline": [{"$match": {"$expr": {"$eq": ["$a", "$$lv"]}}}, {"$match": {}}],
            }
        },
        INNER_UNWIND,
    ],
}


@pytest.fixture(scope="module")
def conn(spark) -> SparkConnector:
    conn = SparkConnector(spark)
    conn.register(NS, "c", pd.DataFrame({"a": [1, 2, 3], "b": [4, 5, 6]}))
    conn.register(NS, "d", pd.DataFrame({"a": [1, 9], "v": [7, 8]}))
    return conn


def _compile(conn, form: str, text) -> str:
    if form.startswith("mongo-"):
        return MongoEngine(conn).compile(text, "c", NS)
    return CypherEngine(conn).compile(text, NS)


@pytest.mark.parametrize("form", REMOVED)
def test_form_no_rule_emits_raises(conn, form):
    error = MongoEngineError if form.startswith("mongo-") else CypherEngineError
    with pytest.raises(error):
        _compile(conn, form, REMOVED[form])
