"""Unit tests for the mini MongoDB aggregation-pipeline engine.

Each supported stage/operator is exercised directly (hand-written
pipelines, not PolyFrame-generated ones) against a small Spark frame,
with pandas as the semantic reference.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.backends.spark import SparkConnector
from repro.mongo.engine import MongoEngine, MongoEngineError

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
def engine(spark, data) -> MongoEngine:
    other = pd.DataFrame({"a": [1, 1, 2, 9], "v": [100, 200, 300, 400]})
    stored_id = pd.DataFrame({"_id": [7, 7, 8], "a": [1, 2, 3]})
    conn = SparkConnector(spark)
    conn.register(NS, "c", spark.createDataFrame(data))
    conn.register(NS, "d", spark.createDataFrame(other))
    conn.register(NS, "e", spark.createDataFrame(stored_id))
    return MongoEngine(conn)


def run(engine, pipeline, collection="c") -> pd.DataFrame:
    return engine.execute(pipeline, collection, NS).toPandas()


class TestScanAndId:
    def test_empty_match_returns_all(self, engine, data):
        out = run(engine, [{"$match": {}}])
        assert len(out) == len(data)

    def test_unknown_collection(self, engine):
        with pytest.raises(MongoEngineError, match="unknown collection"):
            engine.execute([], "nope", NS)

    def test_stored_id_is_returned_unchanged(self, engine):
        # _id is data: a stored _id comes back as stored, and none is made up
        out = run(engine, [{"$match": {}}], "e")
        assert list(out.columns) == ["_id", "a"]
        assert out["_id"].tolist() == [7, 7, 8]
        out = run(engine, [{"$sort": {"a": -1}}, {"$project": {"a": 1}}], "e")
        assert list(out.columns) == ["_id", "a"]
        assert out["_id"].tolist() == [8, 7, 7]
        out = run(engine, [{"$sort": {"_id": 1}}, {"$project": {"_id": 1}}], "e")
        assert out["_id"].tolist() == [7, 7, 8]
        assert "_id" not in run(engine, [{"$match": {}}]).columns


class TestMatch:
    def test_expr_eq(self, engine):
        out = run(engine, [{"$match": {"$expr": {"$eq": ["$s", "x"]}}}])
        assert sorted(out["a"]) == [1, 4]

    @pytest.mark.parametrize(
        "op,want",
        [("$gt", [4, 5]), ("$gte", [3, 4, 5]), ("$lt", [1, 2]), ("$lte", [1, 2, 3]), ("$ne", [1, 2, 4, 5])],
    )
    def test_expr_comparisons(self, engine, op, want):
        out = run(engine, [{"$match": {"$expr": {op: ["$a", 3]}}}])
        assert sorted(out["a"]) == want

    def test_and(self, engine):
        expr = {"$and": [{"$gt": ["$a", 1]}, {"$lt": ["$a", 4]}]}
        out = run(engine, [{"$match": {"$expr": expr}}])
        assert sorted(out["a"]) == [2, 3]

    def test_or(self, engine):
        expr = {"$or": [{"$eq": ["$a", 1]}, {"$eq": ["$a", 5]}]}
        out = run(engine, [{"$match": {"$expr": expr}}])
        assert sorted(out["a"]) == [1, 5]

    def test_not(self, engine):
        expr = {"$not": [{"$eq": ["$s", "x"]}]}
        out = run(engine, [{"$match": {"$expr": expr}}])
        assert sorted(out["a"]) == [2, 3, 5]

    def test_lt_null_means_missing(self, engine):
        # BSON-order emulation used by PolyFrame's is_missing rule
        out = run(engine, [{"$match": {"$expr": {"$lt": ["$b", None]}}}])
        assert sorted(out["a"]) == [2, 4]

    def test_gte_null_means_present(self, engine):
        out = run(engine, [{"$match": {"$expr": {"$gte": ["$b", None]}}}])
        assert sorted(out["a"]) == [1, 3, 5]

    @pytest.mark.parametrize("op", ["$eq", "$ne", "$gt", "$lte"])
    def test_other_null_comparisons(self, engine, data, op):
        # BSON order: null and missing sort below every value ($lt and $gte
        # are the two tests above)
        out = run(engine, [{"$match": {"$expr": {op: ["$b", None]}}}])
        keep = data["b"].isna() if op in ("$eq", "$lte") else data["b"].notna()
        assert sorted(out["a"]) == data["a"][keep].tolist()

    @pytest.mark.parametrize(
        "op,operands,mask",
        [
            (
                "$and",
                [{"$lt": ["$a", 5]}, {"$gte": ["$b", None]}, {"$ne": ["$s", "x"]}],
                lambda d: (d["a"] < 5) & d["b"].notna() & (d["s"] != "x"),
            ),
            (
                "$or",
                [{"$eq": ["$a", 1]}, {"$eq": ["$s", "z"]}, {"$eq": ["$a", 5]}],
                lambda d: (d["a"] == 1) | (d["s"] == "z") | (d["a"] == 5),
            ),
        ],
    )
    def test_three_operands(self, engine, data, op, operands, mask):
        out = run(engine, [{"$match": {"$expr": {op: operands}}}])
        assert sorted(out["a"]) == data["a"][mask(data)].tolist()

    def test_float_literal(self, engine, data):
        out = run(engine, [{"$match": {"$expr": {"$gt": ["$b", 25.5]}}}])
        assert sorted(out["a"]) == data["a"][data["b"] > 25.5].tolist()

    def test_non_expr_match_rejected(self, engine):
        with pytest.raises(MongoEngineError):
            run(engine, [{"$match": {"s": "x"}}])


class TestProject:
    def test_inclusion_keeps_id(self, engine):
        out = run(engine, [{"$project": {"a": 1}}], "e")
        assert set(out.columns) == {"_id", "a"}

    def test_exclusion_drops_listed(self, engine):
        out = run(engine, [{"$project": {"_id": 0}}])
        assert set(out.columns) == {"a", "b", "s"}

    def test_inclusion_with_id_excluded(self, engine):
        out = run(engine, [{"$project": {"a": 1, "_id": 0}}])
        assert list(out.columns) == ["a"]

    def test_computed_field(self, engine):
        out = run(
            engine,
            [{"$project": {"up": {"$toUpper": "$s"}, "_id": 0}}],
        )
        assert sorted(out["up"].unique()) == ["X", "Y", "Z"]

    def test_mixed_in_exclusion_rejected(self, engine):
        with pytest.raises(MongoEngineError):
            run(engine, [{"$project": {"a": 1, "b": 0}}])


class TestArithmeticAndConversions:
    @pytest.mark.parametrize(
        "op,expected",
        [
            ("$add", 11),
            ("$subtract", -9),
            ("$multiply", 10),
            ("$mod", 1),
        ],
    )
    def test_arithmetic(self, engine, op, expected):
        out = run(
            engine,
            [
                {"$match": {"$expr": {"$eq": ["$a", 1]}}},
                {"$project": {"v": {op: ["$a", 10]}, "_id": 0}},
            ],
        )
        assert out["v"].iloc[0] == expected

    def test_mod_truncates(self, engine):
        # MongoDB's $mod keeps the dividend's sign, unlike pandas' %
        out = run(
            engine,
            [
                {"$match": {"$expr": {"$eq": ["$a", 4]}}},
                {"$project": {"v": {"$mod": [{"$subtract": [0, "$a"]}, 3]},
                              "w": {"$mod": ["$a", -3]}, "_id": 0}},
            ],
        )
        assert out[["v", "w"]].iloc[0].tolist() == [-1, 1]

    def test_divide(self, engine):
        out = run(
            engine,
            [
                {"$match": {"$expr": {"$eq": ["$a", 4]}}},
                {"$project": {"v": {"$divide": ["$a", 2]}, "_id": 0}},
            ],
        )
        assert out["v"].iloc[0] == 2.0

    def test_to_int_of_bool(self, engine):
        out = run(
            engine,
            [{"$project": {"v": {"$toInt": {"$eq": ["$s", "x"]}}, "_id": 0}}],
        )
        assert sorted(out["v"]) == [0, 0, 0, 1, 1]

    def test_to_string(self, engine):
        out = run(engine, [{"$project": {"v": {"$toString": "$a"}, "_id": 0}}])
        assert set(out["v"]) == {"1", "2", "3", "4", "5"}

    def test_to_lower(self, engine, data):
        expr = {"$toLower": {"$toUpper": "$s"}}
        out = run(engine, [{"$project": {"v": expr, "_id": 0}}])
        assert out["v"].tolist() == data["s"].str.upper().str.lower().tolist()

    def test_abs(self, engine, data):
        out = run(engine, [{"$project": {"v": {"$abs": {"$subtract": [3, "$a"]}}, "_id": 0}}])
        assert out["v"].tolist() == (3 - data["a"]).abs().tolist()

    def test_float_literal_is_a_double(self, engine, data):
        out = run(engine, [{"$project": {"v": {"$multiply": ["$a", 1.5]}, "_id": 0}}])
        assert out["v"].dtype == "float64"
        assert out["v"].tolist() == (data["a"] * 1.5).tolist()


class TestGroup:
    def test_global_group(self, engine):
        out = run(
            engine,
            [
                {"$group": {"_id": {}, "m": {"$max": "$a"}, "n": {"$min": "$a"}}},
                {"$project": {"_id": 0}},
            ],
        )
        assert out.iloc[0]["m"] == 5 and out.iloc[0]["n"] == 1

    def test_keyed_group_with_restore(self, engine, data):
        out = run(
            engine,
            [
                {"$group": {"_id": {"s": "$s"}, "mx": {"$max": "$a"}}},
                {"$addFields": {"s": "$_id.s"}},
                {"$project": {"_id": 0}},
            ],
        )
        want = data.groupby("s")["a"].max()
        got = out.set_index("s")["mx"]
        assert got.to_dict() == want.to_dict()

    def test_count_accumulator_skips_nulls(self, engine):
        out = run(
            engine,
            [
                {"$group": {"_id": {}, "c": {"$count": "$b"}}},
                {"$project": {"_id": 0}},
            ],
        )
        assert out["c"].iloc[0] == 3

    def test_stddev_pop(self, engine, data):
        out = run(
            engine,
            [
                {"$group": {"_id": {}, "sd": {"$stdDevPop": "$a"}}},
                {"$project": {"_id": 0}},
            ],
        )
        assert out["sd"].iloc[0] == pytest.approx(data["a"].std(ddof=0))


class TestSortLimitCount:
    def test_sort_desc_limit(self, engine):
        out = run(engine, [{"$sort": {"a": -1}}, {"$limit": 2}])
        assert out["a"].tolist() == [5, 4]

    def test_sort_asc(self, engine):
        out = run(engine, [{"$sort": {"a": 1}}, {"$limit": 1}])
        assert out["a"].tolist() == [1]

    def test_count_stage(self, engine):
        out = run(engine, [{"$count": "total"}])
        assert list(out.columns) == ["total"] and out["total"].iloc[0] == 5


class TestLookupUnwind:
    PIPE = [
        {
            "$lookup": {
                "from": "d",
                "as": "r",
                "let": {"lv": "$a"},
                "pipeline": [
                    {"$match": {}},
                    {"$match": {"$expr": {"$eq": ["$a", "$$lv"]}}},
                ],
            }
        },
        {"$unwind": {"path": "$r", "preserveNullAndEmptyArrays": False}},
    ]

    def test_lookup_unwind_inner_join_semantics(self, engine):
        out = run(engine, self.PIPE + [{"$count": "n"}])
        # a=1 matches twice, a=2 once -> 3 joined docs
        assert out["n"].iloc[0] == 3

    def test_lookup_requires_correlation(self, engine):
        bad = [{"$lookup": {"from": "d", "as": "r", "let": {}, "pipeline": [{"$match": {}}]}}]
        with pytest.raises(MongoEngineError, match="correlated"):
            run(engine, bad)


class TestErrors:
    def test_unsupported_stage(self, engine):
        with pytest.raises(MongoEngineError, match="unsupported stage"):
            run(engine, [{"$facet": {}}])

    def test_unsupported_operator(self, engine):
        with pytest.raises(MongoEngineError, match="unsupported operator"):
            run(engine, [{"$match": {"$expr": {"$regexMatch": ["$s", "x"]}}}])

    @pytest.mark.parametrize(
        "expr",
        [
            {"$gt": ["$a", 1, 2]},
            {"$eq": ["$a"]},
            {"$ne": "$a"},
            {"$add": ["$a", 1, 2]},
            {"$mod": ["$a"]},
            {"$and": []},
        ],
    )
    def test_wrong_operand_count(self, engine, expr):
        with pytest.raises(MongoEngineError, match="operand"):
            engine.compile([{"$match": {"$expr": expr}}], "c", NS)

    def test_unbound_let_variable(self, engine):
        with pytest.raises(MongoEngineError, match="unbound"):
            run(engine, [{"$match": {"$expr": {"$eq": ["$a", "$$nope"]}}}])

    def test_array_operand(self, engine):
        # an array is no operand of this subset, not an unformattable literal
        with pytest.raises(MongoEngineError, match="operand"):
            engine.compile([{"$match": {"$expr": {"$gt": [[1], 2]}}}], "c", NS)

    def test_accumulator_with_two_operators(self, engine):
        spec = {"_id": {}, "m": {"$max": "$a", "$min": "$a"}}
        with pytest.raises(MongoEngineError, match="malformed accumulator"):
            engine.compile([{"$group": spec}], "c", NS)
