"""Unit tests for the mini Cypher interpreter (Neo4j stand-in).

Hand-written queries in the Appendix-G linear subset, executed against a
small Spark frame with pandas as the semantic reference.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.backends.spark import SparkConnector
from repro.cypher.engine import CypherEngine, CypherEngineError, _split_top_level, _to_sql

NS = "Default"


@pytest.fixture(scope="module")
def data() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "a": [1, 2, 3, 4, 5],
            "b": [10.0, None, 30.0, None, 50.0],
            "s": ["x", "y", "z", "x", "y"],
        }
    )


@pytest.fixture(scope="module")
def engine(spark, data) -> CypherEngine:
    other = pd.DataFrame({"a": [1, 1, 2, 9], "v": [100, 200, 300, 400]})
    conn = SparkConnector(spark)
    conn.register(NS, "nodes", spark.createDataFrame(data))
    conn.register(NS, "other", spark.createDataFrame(other))
    return CypherEngine(conn)


def run(engine, query: str) -> pd.DataFrame:
    return engine.execute(query, NS).toPandas()


class TestHelpers:
    def test_split_top_level_respects_nesting(self):
        parts = _split_top_level("'a': f(x, y), 'b': t.b, 'c': {1, 2}")
        assert parts == ["'a': f(x, y)", "'b': t.b", "'c': {1, 2}"]

    def test_split_top_level_respects_quotes(self):
        assert _split_top_level("'a,b': 1, 'c': 2") == ["'a,b': 1", "'c': 2"]

    def test_to_sql_function_mapping(self):
        assert _to_sql("stDevP(t.a)") == "stddev_pop(t.a)"
        assert _to_sql("apoc.convert.toInteger(t.a = 1)") == "int(t.a = 1)"
        assert _to_sql("apoc.convert.toString(t.a)") == "string(t.a)"


class TestBasics:
    def test_match_return(self, engine, data):
        out = run(engine, "MATCH (t: nodes)\nRETURN t")
        assert len(out) == len(data)
        assert set(out.columns) == {"a", "b", "s"}

    def test_count(self, engine):
        out = run(engine, "MATCH (t: nodes)\nRETURN COUNT(*) AS t")
        assert out.iloc[0, 0] == 5

    def test_limit(self, engine):
        out = run(engine, "MATCH (t: nodes)\nRETURN t\nLIMIT 2")
        assert len(out) == 2

    def test_unknown_label(self, engine):
        with pytest.raises(CypherEngineError, match="unknown label"):
            run(engine, "MATCH (t: nope)\nRETURN t")

    def test_query_must_start_with_match(self, engine):
        with pytest.raises(CypherEngineError):
            run(engine, "WITH t\nRETURN t")

    @pytest.mark.parametrize(
        "query", ["MATCH (t: nodes)\nWITH t", "MATCH (t: nodes)\nRETURN t\nWITH t"]
    )
    def test_query_must_end_with_return(self, engine, query):
        with pytest.raises(CypherEngineError, match="RETURN"):
            run(engine, query)


class TestWith:
    def test_with_where_filter(self, engine):
        out = run(engine, "MATCH (t: nodes)\nWITH t WHERE t.a > 3\nRETURN t")
        assert sorted(out["a"]) == [4, 5]

    def test_with_where_is_null(self, engine):
        out = run(engine, "MATCH (t: nodes)\nWITH t WHERE t.b IS NULL\nRETURN t")
        assert sorted(out["a"]) == [2, 4]

    def test_with_bare_t_is_noop(self, engine):
        out = run(engine, "MATCH (t: nodes)\nWITH t\nRETURN t")
        assert len(out) == 5

    def test_map_projection(self, engine):
        out = run(engine, "MATCH (t: nodes)\nWITH t{'aa': t.a, 'ss': t.s}\nRETURN t")
        assert set(out.columns) == {"aa", "ss"}

    def test_map_projection_computed(self, engine):
        out = run(
            engine, "MATCH (t: nodes)\nWITH t{'u': upper(t.s)}\nRETURN t"
        )
        assert set(out["u"]) == {"X", "Y", "Z"}

    def test_chained_projection_rebinds_t(self, engine):
        q = (
            "MATCH (t: nodes)\n"
            "WITH t{'a': t.a}\n"
            "WITH t{'a2': t.a * 2}\n"
            "RETURN t"
        )
        out = run(engine, q)
        assert sorted(out["a2"]) == [2, 4, 6, 8, 10]

    def test_order_by_desc(self, engine):
        out = run(
            engine, "MATCH (t: nodes)\nWITH t ORDER BY t.a DESC\nRETURN t\nLIMIT 2"
        )
        assert out["a"].tolist() == [5, 4]

    def test_order_by_asc(self, engine):
        out = run(engine, "MATCH (t: nodes)\nWITH t ORDER BY t.a\nRETURN t\nLIMIT 1")
        assert out["a"].tolist() == [1]

    def test_unsupported_with_body(self, engine):
        with pytest.raises(CypherEngineError):
            run(engine, "MATCH (t: nodes)\nWITH t, r\nRETURN t")


class TestAggregation:
    def test_global_aggregate(self, engine):
        out = run(
            engine,
            "MATCH (t: nodes)\nWITH { 'mx': max(t.a), 'mn': min(t.a) } AS t\nRETURN t",
        )
        assert out.iloc[0]["mx"] == 5 and out.iloc[0]["mn"] == 1

    def test_implicit_grouping(self, engine, data):
        out = run(
            engine,
            "MATCH (t: nodes)\nWITH { 's': t.s, 'mx': max(t.a) } AS t\nRETURN t",
        )
        want = data.groupby("s")["a"].max().to_dict()
        assert out.set_index("s")["mx"].to_dict() == want

    def test_count_aggregate_skips_nulls(self, engine):
        out = run(
            engine, "MATCH (t: nodes)\nWITH { 'c': count(t.b) } AS t\nRETURN t"
        )
        assert out.iloc[0]["c"] == 3

    def test_stdevp_population(self, engine, data):
        out = run(
            engine, "MATCH (t: nodes)\nWITH { 'sd': stDevP(t.a) } AS t\nRETURN t"
        )
        assert out.iloc[0]["sd"] == pytest.approx(data["a"].std(ddof=0))

    def test_aggregating_with_requires_aggregate(self, engine):
        with pytest.raises(CypherEngineError, match="aggregate"):
            run(engine, "MATCH (t: nodes)\nWITH { 's': t.s } AS t\nRETURN t")


class TestJoin:
    Q = (
        "MATCH (t: nodes)\n"
        "MATCH (r: other)\n"
        "WHERE t.a = r.a\n"
        "WITH t{.*, 'r': r}\n"
        "RETURN COUNT(*) AS t"
    )

    def test_join_count(self, engine):
        assert run(engine, self.Q).iloc[0, 0] == 3  # a=1 twice, a=2 once

    def test_join_binding_shape(self, engine):
        q = self.Q.replace("RETURN COUNT(*) AS t", "RETURN t")
        out = run(engine, q)
        assert "r" in out.columns and "a" in out.columns

    def test_join_requires_equality_predicate(self, engine):
        bad = self.Q.replace("t.a = r.a", "t.a > r.a")
        with pytest.raises(CypherEngineError, match="join WHERE"):
            run(engine, bad)


class TestTypeConversion:
    def test_apoc_to_integer_of_comparison(self, engine):
        q = (
            "MATCH (t: nodes)\n"
            "WITH t{'d': apoc.convert.toInteger(t.s = 'x')}\n"
            "RETURN t"
        )
        out = run(engine, q)
        assert sorted(out["d"]) == [0, 0, 0, 1, 1]
