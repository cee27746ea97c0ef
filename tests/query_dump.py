"""Print every query text PolyFrame forms for a fixed set of frames.

Run from the repository root: ``PYTHONPATH=src python -m tests.query_dump``.

For each of the five languages it prints the generated text of the Table I
chain, Table III's 13 expressions, the chains of
``tests/test_polyframe_api.CHAINS``, ``describe(columns=...)``,
``get_dummies``, a two-key ``groupby`` and a ``merge``, formed on a
:class:`~repro.bench.recording.RecordingConnector`. For SQL++, Mongo and
Cypher it also prints the Spark SQL that the transpiler and the two
compilers make of each text, over small datasets registered in a local
Spark session. Two checkouts that print the same output form and compile
the same queries byte for byte.
"""
from __future__ import annotations

import json

import pandas as pd

from repro.backends.engines import CypherConnector, MongoConnector
from repro.backends.spark import SparkConnector
from repro.bench.expressions import EXPRESSIONS
from repro.bench.harness import BACKENDS, COLLECTION, COLLECTION2, NAMESPACE, local_spark
from repro.bench.recording import RecordingConnector, table1
from repro.core import PolyFrame
from repro.sqlpp.transpile import transpile
from repro.wisconsin.generator import wisconsin_pdf
from tests.test_polyframe_api import CHAINS


def _table1(pf, pf2):
    conn = pf.connector
    *formed_only, _ = table1(conn)
    conn.queries[:0] = formed_only  # formed, not sent: recorded before the action


#: case name -> one function of the two Wisconsin frames
CASES = {"table1": _table1}
CASES |= {f"expr{e.id:02d}": e.poly_fn for e in EXPRESSIONS}
CASES |= {f"chain-{name}": (lambda f: lambda pf, pf2: f(pf))(f) for name, f in CHAINS.items()}
CASES |= {
    "describe": lambda pf, pf2: pf.describe(columns=["unique1", "tenPercent"]),
    "get_dummies": lambda pf, pf2: pf["string4"].get_dummies().toPandas(),
    "groupby-two-keys": lambda pf, pf2: pf.groupby(["two", "four"])["ten"].agg("max").toPandas(),
    "merge": lambda pf, pf2: pf.merge(pf2, on="unique2")[["unique1"]].head(3),
}


def formed(language: str, case) -> list[tuple[str | None, str]]:
    """The ``(collection, text)`` of every query ``case`` forms in
    ``language``: each frame's ``query`` it records (collection ``None``),
    then the text of each action it runs."""
    conn = RecordingConnector(language)
    pf, pf2 = PolyFrame(NAMESPACE, COLLECTION, conn), PolyFrame(NAMESPACE, COLLECTION2, conn)
    try:
        result = case(pf, pf2)
        if isinstance(result, PolyFrame):
            result.toPandas()
    except KeyError:  # describe() reads its statistics by name from the result, [[0]]
        pass
    sent = conn.collections
    return list(zip([None] * (len(conn.queries) - len(sent)) + sent, conn.queries))


def compilers(spark) -> dict:
    """language -> its query text's Spark SQL, given the text and collection."""
    SparkConnector(spark).register("Test", "Users", pd.DataFrame(
        {"lang": ["en", "fr"], "name": ["a", "b"], "address": ["x", "y"]}
    ))
    data = wisconsin_pdf(20, seed=1)
    for name in (COLLECTION, COLLECTION2):
        SparkConnector(spark).register(NAMESPACE, name, data)
    mongo, cypher = MongoConnector(spark), CypherConnector(spark)

    def ns(collection):
        return "Test" if collection == "Users" else NAMESPACE

    return {
        "sqlpp": lambda text, coll: transpile(text),
        "mongo": lambda text, coll: mongo.engine.compile(
            json.loads(mongo.preprocess(text, ns(coll), coll)), coll, ns(coll)
        ),
        "cypher": lambda text, coll: cypher.engine.compile(text, ns(coll)),
    }


def main() -> None:
    spark = local_spark()
    try:
        compile_to_spark = compilers(spark)
        for language in BACKENDS:
            for name, case in CASES.items():
                for i, (coll, text) in enumerate(formed(language, case)):
                    print(f"==== {language} {name} [{i}] {coll or 'formed'}\n{text}")
                    if coll is not None and language in compile_to_spark:
                        try:
                            sql = compile_to_spark[language](text, coll)
                        except Exception as exc:
                            sql = f"ERROR {type(exc).__name__}: {exc}"
                        print(f"---- spark sql\n{sql}")
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
