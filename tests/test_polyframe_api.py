"""PolyFrame API behaviour: operators, errors, laziness, user rewrites.

Most tests run against the Spark backend (the repro target); pure
formation behaviour uses the RecordingConnector.
"""
from __future__ import annotations

import contextlib
import functools
import operator
import re

import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import AnalysisException

from repro.backends.duck import DuckDBConnector
from repro.backends.engines import MongoConnector
from repro.bench.harness import BACKENDS, COLLECTION, NAMESPACE
from repro.bench.recording import RecordingConnector
from repro.core import DatasetNotRegistered, PolyFrame
from repro.core.aframe import PolyFrameColumn
from repro.core.rewrite import load_language
from repro.mongo.engine import MongoEngineError
from tests.conftest import polyframes


@pytest.fixture()
def spf(backends):
    """A PolyFrame on the Spark backend."""
    return polyframes(backends["sparksql"])[0]


def spy_rules(conn) -> list[str]:
    """The keys of the rules ``conn``'s rules apply from now on, in order."""
    applied = []
    apply = conn.rules.apply
    conn.rules.apply = lambda key, **variables: (applied.append(key), apply(key, **variables))[1]
    return applied


def query_rules(applied: list[str]) -> list[str]:
    """The query rules (q1-q10) among ``applied``."""
    return [key for key in applied if re.fullmatch(r"q\d+", key)]


@contextlib.contextmanager
def nothing_sent(conn):
    """Assert that the block sends no query through ``conn``."""
    sent = []
    original = conn.send_query
    conn.send_query = lambda q, n, c: (sent.append(q), original(q, n, c))[1]
    try:
        yield
    finally:
        conn.send_query = original
    assert sent == []


class TestConstruction:
    def test_unregistered_dataset_raises_at_creation(self, backends):
        # errors surface at frame-creation time, not first action (§III-A)
        for name, conn in backends.items():
            with pytest.raises(DatasetNotRegistered):
                PolyFrame("Nope", "missing", conn)

    def test_creation_loads_no_data(self):
        conn = RecordingConnector("sparksql")
        PolyFrame("Test", "Users", conn)
        assert conn.queries == []

    def test_repr_shows_language_and_query(self, spf):
        assert "sparksql" in repr(spf)
        assert "SELECT" in repr(spf)


class TestGetitemErrors:
    def test_unsupported_key_type(self, spf):
        with pytest.raises(TypeError, match="unsupported key"):
            spf[123]

    def test_sort_values_list_rejected(self, spf):
        with pytest.raises(TypeError):
            spf.sort_values(["a", "b"])


class TestArithmetic:
    """Column arithmetic rewrites (paper §III-C-1 'arithmetic operations')."""

    @pytest.mark.parametrize(
        "op,expected",
        [
            (lambda c: c + 1, lambda s: s + 1),
            (lambda c: c - 1, lambda s: s - 1),
            (lambda c: c * 3, lambda s: s * 3),
            (lambda c: c % 7, lambda s: s % 7),
        ],
    )
    def test_int_ops_match_pandas(self, spf, wdata, op, expected):
        got = op(spf["unique1"]).toPandas()
        want = expected(wdata["unique1"])
        assert sorted(got.iloc[:, 0]) == sorted(want)

    def test_division_is_float(self, spf, wdata):
        got = (spf["unique1"] / 2).toPandas()
        assert sorted(got.iloc[:, 0]) == sorted(wdata["unique1"] / 2)

    def test_column_column_addition(self, spf, wdata):
        got = (spf["two"] + spf["four"]).toPandas()
        want = wdata["two"] + wdata["four"]
        assert sorted(got.iloc[:, 0]) == sorted(want)

    @pytest.mark.parametrize("op", [operator.truediv, operator.mod], ids=lambda op: op.__name__)
    @pytest.mark.parametrize("zero", [0, 0.0, False], ids=repr)
    def test_literal_zero_divisor_raises_at_formation(self, backend, op, zero):
        # pandas gives inf, -inf or NaN for / 0 and NaN for % 0; the Spark
        # backends raise DIVIDE_BY_ZERO or REMAINDER_BY_ZERO at the action,
        # and DuckDB returns NULL
        _, conn = backend
        pf, _ = polyframes(conn)
        with nothing_sent(conn), pytest.raises(ZeroDivisionError, match="literal zero"):
            op(pf["unique1"], zero)


class TestComparisonsAndLogicals:
    def test_ne(self, spf, wdata):
        assert len(spf[spf["two"] != 0]) == int((wdata["two"] != 0).sum())

    def test_ge_le_chain(self, spf, wdata):
        got = len(spf[(spf["ten"] >= 2) & (spf["ten"] <= 4)])
        assert got == int(((wdata["ten"] >= 2) & (wdata["ten"] <= 4)).sum())

    def test_or(self, spf, wdata):
        got = len(spf[(spf["ten"] == 0) | (spf["ten"] == 9)])
        assert got == int(((wdata["ten"] == 0) | (wdata["ten"] == 9)).sum())

    def test_invert(self, spf, wdata):
        got = len(spf[~(spf["two"] == 0)])
        assert got == int((wdata["two"] != 0).sum())

    def test_gt_lt(self, spf, wdata):
        assert len(spf[spf["unique1"] > 1500]) == int((wdata["unique1"] > 1500).sum())
        assert len(spf[spf["unique1"] < 10]) == int((wdata["unique1"] < 10).sum())

    def test_notna(self, spf, wdata):
        got = len(spf[spf["tenPercent"].notna()])
        assert got == int(wdata["tenPercent"].notna().sum())

    def test_string_equality(self, spf, wdata):
        v = wdata["string4"].iloc[0]
        assert len(spf[spf["string4"] == v]) == int((wdata["string4"] == v).sum())

    def test_string_literal_escaping(self, backend):
        # quotes, backslashes and control characters must reach every
        # backend in its own string syntax: 'it''s' on DuckDB, 'it\'s' on
        # Spark SQL, ...; and neither text translators nor rewrite variables
        # may rewrite inside a literal. A control character reaches no
        # line-based reader as a raw line break, and no JSON one raw at all.
        _, conn = backend
        values = ["it's", "a\\b", 'q"d', "t.name", "a IS UNKNOWN", "$subquery", "$num"]
        values += ["a\nb", "a\nWITH t", "tab\there"]
        decoys = ["its", "ab", "qd", "name", "a IS NULL"]
        pdf = pd.DataFrame({"name": values + decoys})
        conn.register("Esc", "escapes", pdf)
        pf = PolyFrame("Esc", "escapes", conn)
        for value in values:
            got = pf[pf["name"] == value].toPandas()
            assert got["name"].tolist() == pdf[pdf["name"] == value]["name"].tolist()

    def test_column_named_like_a_rewrite_variable(self, backend):
        # Mongo's "$num" field path must survive the later `$num` of head()
        _, conn = backend
        pdf = pd.DataFrame({"num": [7, 1, 9, 4, 3, 8, 5, 2, 6, 0]})
        conn.register("Var", "nums", pdf)
        pf = PolyFrame("Var", "nums", conn)
        got = pf[pf["num"] > 3].sort_values("num").head(5)
        want = pdf[pdf["num"] > 3].sort_values("num").head(5)
        assert got["num"].tolist() == want["num"].tolist()

    @pytest.mark.parametrize("action", ["filter", "max", "sort"])
    def test_id_is_not_made_up(self, backend, action):
        # _id is data on Mongo too: a frame without one cannot read it
        _, conn = backend
        conn.register("NoId", "ab", pd.DataFrame({"a": range(6), "b": range(6)}))
        pf = PolyFrame("NoId", "ab", conn)
        with pytest.raises((AnalysisException, duckdb.Error)) as raised:
            if action == "filter":
                len(pf[pf["_id"] > 3])
            elif action == "max":
                pf["_id"].max()
            else:
                pf.sort_values("_id").head()
        # a ParseException is an AnalysisException too: the column must be
        # unresolved, not the query malformed
        if isinstance(raised.value, AnalysisException):
            assert raised.value.getCondition().startswith("UNRESOLVED_COLUMN")

    def test_float_literals_are_doubles(self, backend):
        # Spark SQL reads a plain 2.5 as a DECIMAL; every backend must
        # compute in doubles, as pandas does
        _, conn = backend
        pdf = pd.DataFrame({"a": [1, 2, 3, 4, 5], "b": [0.5, 1.25, 2.5, 3.0, 7.75]})
        conn.register("Flt", "ab", pdf)
        pf = PolyFrame("Flt", "ab", conn)
        got = (pf["a"] * 1.5).head()
        assert got.iloc[:, 0].dtype == "float64"
        assert got.iloc[:, 0].tolist() == (pdf["a"] * 1.5).head().tolist()
        assert len(pf[pf["b"] > 1.2]) == int((pdf["b"] > 1.2).sum())
        top = (pf["a"] * 0.1).max()
        assert isinstance(top, float) and top == (pdf["a"] * 0.1).max()

    @pytest.mark.parametrize(
        "op", [operator.eq, operator.ne, operator.gt, operator.add], ids=lambda op: op.__name__
    )
    def test_none_operand_raises_at_formation(self, backend, op):
        # pandas gives a constant (all False; all True for !=), or raises
        # for +; `= NULL` gave 0 rows for == and != alike, and Mongo's null
        # matched the missing values
        _, conn = backend
        pf, _ = polyframes(conn)
        with nothing_sent(conn), pytest.raises(TypeError, match="isna"):
            op(pf["tenPercent"], None)

    def test_truth_value_is_ambiguous(self):
        # as in pandas: bool() ran a COUNT, so `1 < c < 3` kept only `c < 3`
        conn = RecordingConnector("sparksql")
        pf = PolyFrame("T", "a", conn)
        with pytest.raises(ValueError, match="ambiguous"):
            pf[1 < pf["k"] < 3]
        with pytest.raises(ValueError, match="&"):
            bool(pf["k"] > 100)
        assert conn.queries == []

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_floats_raise_at_formation(self, backend, value):
        # no backend has a literal for them; pandas compares them, but a
        # bare `inf` in the query would read a column of that name
        pf, _ = polyframes(backend[1])
        with pytest.raises(ValueError, match="no literal"):
            pf["tenPercent"] < value


#: ``string4`` cycles AAAA, HHHH, OOOO, VVVV padded with ``x``; lower case
#: matches no stored value, only a mapped one
HHHH = "hhhh" + "x" * 48

#: chain name -> one function applied to a PolyFrame and to a pandas frame
CHAINS = {
    # failed or were silently wrong on every backend before one derivation step
    "arith-arith": lambda f: (f["ten"] + 1) * 2,
    "column-arith": lambda f: (f["ten"] + f["four"]) * 2,
    "arith-isna": lambda f: (f["ten"] + 1).isna(),
    "compare-astype": lambda f: (f["ten"] > 5).astype(int),
    "mod-map": lambda f: (f["ten"] % 3).map(abs),
    # pandas' % floors, so the remainder takes the divisor's sign; SQL's truncates
    "mod-negative": lambda f: (f["ten"] - 5) % 3,
    "mod-negative-divisor": lambda f: (f["ten"] - 5) % -3,
    "filter-on-map": lambda f: len(f[f["string4"].map(str.lower) == HHHH]),
    # (ten + 1) * 2 > 10 keeps ten > 4; ten + 1 * 2 > 10 would keep ten > 8
    "filter-precedence": lambda f: len(f[(f["ten"] + 1) * 2 > 10]),
    # regression guards: chains that already worked
    "map-arith": lambda f: f["ten"].map(abs) + 1,
    "invert-values": lambda f: ~(f["ten"] == 3),
    "map-map": lambda f: f["string4"].map(str.upper).map(str.lower),
    "map-max": lambda f: f["unique1"].map(abs).max(),
    "filter-arith": lambda f: len(f[(f["ten"] + 1) > 5]),
    "filter-invert-and": lambda f: len(f[~(f["ten"] == 3) & (f["four"] > 1)]),
    # computed columns in a Mongo filter, combined, or cast
    "filter-astype": lambda f: len(f[f["ten"].astype(str) == "3"]),
    "filter-two-computed": lambda f: len(f[(f["ten"] + 1) > f["four"] * 2]),
    "filter-invert-computed": lambda f: len(f[~((f["ten"] % 3) == 0)]),
    "isna-computed-filter": lambda f: len(f[(f["tenPercent"] + 1).notna()]),
    # a comparison of comparisons: `a = b = c > 1` parses in no SQL backend
    "compare-compare": lambda f: len(f[(f["ten"] == f["two"]) == (f["four"] > 1)]),
    # arithmetic over a boolean adds it as 0/1; unwrapped, `a = b + 1` compares a with b + 1
    "compare-arith": lambda f: (f["ten"] == f["two"]) + 1,
    "compare-literal-arith": lambda f: (f["ten"] > 3) * 2,
    "filter-compare-arith": lambda f: len(f[(f["ten"] == f["two"]) + 1 > 1]),
    # of two booleans numpy's + is a logical or and * a logical and; a
    # boolean literal adds as 0/1, and SQL has no BIGINT + BOOLEAN
    "compare-add-compare": lambda f: (f["ten"] == f["two"]) + (f["ten"] > 3),
    "compare-mul-compare": lambda f: (f["ten"] > 3) * (f["two"] == 1),
    "arith-bool-literal": lambda f: f["ten"] + True,
    # an escaped quote inside a literal does not end it, so its comma splits no item
    "compare-quoted-comma": lambda f: f["stringu1"] == "it's, x",
    # a series filtered by a predicate of its frame, as pandas filters it;
    # formed over the column's one-column query, the filter read a key it lacks
    "series-filter": lambda f: f["ten"][f["four"] > 1],
    "computed-series-filter": lambda f: (f["ten"] + 1)[f["four"] > 1],
    "series-filter-arith": lambda f: f["ten"][f["four"] > 1] * 2,
    "series-filter-max": lambda f: f["unique1"][f["four"] > 1].max(),
    "series-filter-len": lambda f: len(f["unique1"][f["tenPercent"].isna()]),
    "map-series-filter": lambda f: f["string4"].map(str.lower)[f["two"] == 1],
    # eight steps of x = x * 2 + 1, formed as one q7 over the frame
    "arith-depth-8": lambda f: functools.reduce(lambda col, _: col * 2 + 1, range(8), f["ten"]),
}

#: an aggregate of a computed column reads it by name, and SQL++ ``SELECT
#: VALUE`` drops that name (DESIGN.md §3)
SQLPP_LEFT_OUT = {"map-max"}


def _values(result):
    """A chain's result in comparable form: whether a column is boolean
    (0 and 1 equal False and True in Python), and its sorted values."""
    if isinstance(result, PolyFrameColumn):
        result = result.toPandas().iloc[:, 0]
    if isinstance(result, pd.Series):
        return result.dtype == bool, sorted(result.tolist())
    return result


class TestChainedColumns:
    """A chain of column expressions means what the same pandas chain
    means, on every backend (DESIGN.md §3)."""

    @pytest.mark.parametrize(
        "backend,chain",
        [
            (b, c)
            for c in CHAINS
            for b in BACKENDS
            if not (b == "sqlpp" and c in SQLPP_LEFT_OUT)
        ],
        indirect=["backend"],
    )
    def test_chain_matches_pandas(self, backend, wdata, chain):
        _, conn = backend
        pf, _ = polyframes(conn)
        assert _values(CHAINS[chain](pf)) == _values(CHAINS[chain](wdata))

    @pytest.mark.parametrize("language", BACKENDS)
    @pytest.mark.parametrize("steps", [1, 4, 16])
    def test_chain_is_one_q7_over_its_frame(self, language, steps):
        # each step composes its expr over the frame, so the text's depth
        # does not grow with the chain
        conn = RecordingConnector(language)
        pf = PolyFrame("T", "a", conn)
        x = functools.reduce(lambda col, _: col * 2 + 1, range(steps), pf["x"])
        alias = conn.rules.quoted(x.name, "alias_quote")
        assert x.query == conn.rules.apply("q7", subquery=pf.query, statement=x.expr, alias=alias)
        assert conn.queries == []

    @pytest.mark.parametrize("language", BACKENDS)
    def test_filter_key_forms_no_value_query(self, language):
        # a filter key reads only its expr, so no column forms its own q2
        # or q7 on the way to the count; the frame's q1 is formed by the
        # action, not at creation
        conn = RecordingConnector(language)
        applied = spy_rules(conn)
        pf = PolyFrame("T", "a", conn)
        len(pf[(pf["ten"] == 7) & (pf["two"] == 1)])
        assert applied == ["single_attribute", "eq", "single_attribute", "eq", "and", "q1", "q6", "q3"]

    def test_mongo_stage_text_not_json_raises_typed_error(self, spark, backends):
        rules = load_language("mongo").copy()
        rules.set("q3", '$subquery,\n { "$count": count }')
        pf = PolyFrame(NAMESPACE, COLLECTION, MongoConnector(spark, rules=rules))
        with pytest.raises(MongoEngineError, match="not valid JSON"):
            len(pf)

    @pytest.mark.parametrize(
        "backend", [b for b in BACKENDS if b != "sqlpp"], indirect=True
    )
    def test_get_dummies_of_mapped_column(self, backend, wdata):
        _, conn = backend
        pf, _ = polyframes(conn)
        got = pf["string4"].map(str.lower).get_dummies().toPandas()
        want = pd.get_dummies(wdata["string4"].map(str.lower)).astype(int)
        assert {c: int(got[c].sum()) for c in got} == {
            f"string4_{v}": int(want[v].sum()) for v in want
        }

    @pytest.mark.parametrize("language", BACKENDS)
    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.eq, operator.gt, operator.and_, operator.or_],
    )
    def test_columns_of_different_frames_raise(self, language, op):
        # pandas would align the two frames by index; a query can only read
        # both operands from one frame
        conn = RecordingConnector(language)
        pf, pf2 = PolyFrame("T", "a", conn), PolyFrame("T", "b", conn)
        with pytest.raises(ValueError, match="different frames"):
            op(pf["x"], pf2["x"])

    @pytest.mark.parametrize(
        "misuse",
        [
            lambda pf: pf["v"].merge(pf, on="k"),
            lambda pf: pf["v"].groupby("k"),
            lambda pf: pf["v"].sort_values("v"),
            lambda pf: pf["v"][["k"]],
            lambda pf: pf["v"]["k"],
        ],
        ids=["merge", "groupby", "sort_values", "list-key", "name-key"],
    )
    def test_frame_operations_of_a_column_raise_at_formation(self, misuse):
        # a column is no frame: merge, groupby and the keys passed formation,
        # then read "k" from the column's one-column query, which lacks it
        conn = RecordingConnector("sql")
        pf = PolyFrame("T", "a", conn)
        assert not isinstance(pf["v"], PolyFrame)
        with pytest.raises((AttributeError, TypeError)):
            misuse(pf)
        assert conn.queries == []

    @pytest.mark.parametrize("language", BACKENDS)
    @pytest.mark.parametrize("op", [operator.sub, operator.truediv])
    @pytest.mark.parametrize("right", ["column", "literal"])
    def test_boolean_difference_or_quotient_raises(self, language, op, right, wdata):
        # pandas raises TypeError for - and NotImplementedError for / of two
        # booleans; formation raises TypeError for both
        def other(f):
            return f["two"] == 1 if right == "column" else True

        with pytest.raises((TypeError, NotImplementedError)):
            op(wdata["ten"] > 3, other(wdata))
        pf = PolyFrame("T", "a", RecordingConnector(language))
        with pytest.raises(TypeError, match="two boolean operands"):
            op(pf["ten"] > 3, other(pf))

    @pytest.mark.parametrize("language", BACKENDS)
    def test_filter_key_of_another_dataset_raises(self, language):
        # a query would read the key's column from the filtered frame
        conn = RecordingConnector(language)
        pf, pf2 = PolyFrame("T", "a", conn), PolyFrame("T", "b", conn)
        with pytest.raises(ValueError, match="different frames"):
            pf[pf2["x"] == 1]
        with pytest.raises(ValueError, match="different frames"):
            pf["y"][pf2["x"] == 1]
        # a key of a parent frame of the same dataset reads the same rows,
        # and pandas accepts it too
        assert pf[pf["x"] > 0][pf["y"] == 1].query


class TestColumnActions:
    def test_agg_by_name(self, spf, wdata):
        assert spf["unique1"].agg("max") == wdata["unique1"].max()

    def test_mean(self, spf, wdata):
        assert spf["unique1"].mean() == pytest.approx(wdata["unique1"].mean())

    def test_std_sample_kind(self, spf, wdata):
        # sparksql declares std_kind=sample -> pandas default ddof=1
        assert spf["unique1"].std() == pytest.approx(wdata["unique1"].std())

    def test_count_skips_nulls(self, spf, wdata):
        assert spf["tenPercent"].count() == int(wdata["tenPercent"].count())

    def test_unsupported_agg(self, spf):
        with pytest.raises(ValueError, match="unsupported aggregate"):
            spf["unique1"].agg("median")

    def test_unsupported_map(self, spf):
        for func in (len, "upper"):
            with pytest.raises(ValueError, match="unsupported map"):
                spf["unique1"].map(func)

    def test_map_lower(self, spf, wdata):
        got = spf["string4"].map(str.lower).head(3)
        assert all(v.islower() for v in got.iloc[:, 0])

    def test_astype_str(self, spf):
        got = spf["two"].astype(str).head(3)
        assert set(got.iloc[:, 0]) <= {"0", "1"}

    def test_astype_unsupported(self, spf):
        with pytest.raises(ValueError):
            spf["two"].astype(dict)


class TestMerge:
    def test_merge_on_shorthand(self, backends, wdata):
        pf, pf2 = polyframes(backends["sparksql"])
        assert len(pf.merge(pf2, on="unique1")) == len(wdata)

    def test_merge_requires_keys(self, spf):
        with pytest.raises(ValueError, match="requires"):
            spf.merge(spf)

    def test_merge_inner_only(self, spf):
        with pytest.raises(ValueError, match="inner"):
            spf.merge(spf, on="unique1", how="left")

    @pytest.mark.parametrize("language", BACKENDS)
    @pytest.mark.parametrize(
        "keys", [{"left_on": "k"}, {"right_on": "k"}, {"left_on": "k", "right_on": "j"}]
    )
    def test_on_with_left_or_right_on_raises_at_formation(self, language, keys):
        # pandas raises MergeError, a ValueError, and nothing is joined
        frame = pd.DataFrame({"k": [1, 2], "j": [2, 1]})
        with pytest.raises(ValueError):
            frame.merge(frame, on="k", **keys)
        conn = RecordingConnector(language)
        pf = PolyFrame("T", "a", conn)
        with pytest.raises(ValueError, match="combination"):
            pf.merge(pf, on="k", **keys).head()
        assert conn.queries == []

    def test_selective_join(self, backends, wdata):
        pf, pf2 = polyframes(backends["sparksql"])
        filtered = pf[pf["ten"] == 3]
        got = len(filtered.merge(pf2, on="unique1"))
        assert got == int((wdata["ten"] == 3).sum())


class TestSortValues:
    @pytest.mark.parametrize(
        "ascending", [[False], (False,), [True], 0, 1], ids=["[False]", "(False,)", "[True]", "0", "1"]
    )
    def test_ascending_as_pandas(self, backend, wdata, ascending):
        # pandas reads a list of one as its one value, for one column
        pf, _ = polyframes(backend[1])
        got = pf.sort_values("unique1", ascending=ascending).head(5)
        want = wdata.sort_values("unique1", ascending=ascending).head(5)
        assert got["unique1"].tolist() == want["unique1"].tolist()

    @pytest.mark.parametrize("language", BACKENDS)
    @pytest.mark.parametrize("ascending", [[True, False], [], "no", None, 1.0, 2, [[False]]])
    def test_other_ascending_raises_at_formation(self, language, ascending):
        # pandas raises ValueError for each but 2, which it reads as True
        conn = RecordingConnector(language)
        with pytest.raises(ValueError, match="ascending"):
            PolyFrame("T", "a", conn).sort_values("k", ascending=ascending).head()
        assert conn.queries == []


class TestFramesOfTwoConnectors:
    """Two connectors may hold datasets of one name with different rows.
    A query reads one connector's rows, so frames of two connectors do not
    combine: pandas would read each frame's own rows."""

    @pytest.fixture()
    def frames(self):
        # pandas: pf["k"] + other["k"] is [2, 4, 33]; merge on k has 2 rows
        frames = []
        for k in ([1, 2, 3], [1, 2, 30]):
            conn = DuckDBConnector()
            conn.register("A", "w", pd.DataFrame({"k": k}))
            frames.append(PolyFrame("A", "w", conn))
        return frames

    def test_arithmetic_raises(self, frames):
        pf, other = frames
        with pytest.raises(ValueError, match="different frames"):
            pf["k"] + other["k"]

    def test_merge_raises(self, frames):
        pf, other = frames
        with pytest.raises(ValueError, match="different connectors"):
            pf.merge(other, on="k")

    def test_filter_key_raises(self, frames):
        pf, other = frames
        with pytest.raises(ValueError, match="different frames"):
            pf[other["k"] > 2]
        with pytest.raises(ValueError, match="different frames"):
            pf["k"][other["k"] > 2]

    def test_merge_of_two_languages_raises(self):
        pf = PolyFrame("A", "w", RecordingConnector("sql"))
        other = PolyFrame("A", "w", RecordingConnector("mongo"))
        with pytest.raises(ValueError, match="different connectors"):
            pf.merge(other, on="k")


class TestGroupByApi:
    def test_groupby_list_of_keys(self, backends, wdata):
        pf, _ = polyframes(backends["sparksql"])
        got = pf.groupby(["two", "four"])["unique1"].agg("count").toPandas()
        want = wdata.groupby(["two", "four"])["unique1"].count()
        assert len(got) == len(want)
        assert int(got["count_unique1"].sum()) == int(want.sum())

    def test_groupby_min(self, backends, wdata):
        pf, _ = polyframes(backends["sparksql"])
        got = pf.groupby("ten")["unique1"].agg("min").toPandas()
        want = wdata.groupby("ten")["unique1"].min()
        assert got.set_index("ten")["min_unique1"].to_dict() == want.to_dict()

    def test_groupby_head_is_action(self, backends):
        pf, _ = polyframes(backends["sparksql"])
        assert len(pf.groupby("ten")["unique1"].agg("count").head(3)) == 3

    @pytest.mark.parametrize(
        "misuse,error",
        [
            (lambda pf: pf.groupby("two")[["ten"]], TypeError),
            (lambda pf: pf.groupby("two")[pf["ten"]], TypeError),
            (lambda pf: pf.groupby(2), TypeError),
            (lambda pf: pf.groupby(["two", 4]), TypeError),
            (lambda pf: pf.groupby([]), ValueError),
        ],
        ids=["select-list", "select-column", "int-key", "int-among-keys", "no-key"],
    )
    def test_groupby_misuse_raises_at_formation(self, backend, misuse, error):
        # each reached the backend as its parse or binder error, or an IndexError
        _, conn = backend
        pf, _ = polyframes(conn)
        with nothing_sent(conn), pytest.raises(error):
            misuse(pf).agg("max")


class TestFormationOnRead:
    """A frame and a column hold their last step; their text is formed only
    when read, by an action (DESIGN.md §3)."""

    @pytest.mark.parametrize("language", BACKENDS)
    def test_building_forms_no_query_text(self, language):
        conn = RecordingConnector(language)
        applied = spy_rules(conn)
        pf = PolyFrame("T", "a", conn)
        built = {
            "frame": (pf, ["q1"]),
            "projection": (pf[["x", "y"]], ["q1", "q2"]),
            "filter": (pf[pf["x"] > 1], ["q1", "q6"]),
            "sort": (pf.sort_values("x", ascending=False), ["q1", "q4"]),
            "group": (pf.groupby("x").agg("max"), ["q1", "q9"]),
            "merge": (pf.merge(PolyFrame("T", "b", conn), on="x"), ["q1", "q1", "q10"]),
            "column filter": (pf["x"][pf["y"] > 1], ["q1", "q6", "q2"]),
            "derived column": ((pf["x"] + 1)[pf["y"] > 1], ["q1", "q6", "q7"]),
        }
        assert query_rules(applied) == []
        for name, (lazy, chain) in built.items():
            applied.clear()
            lazy.query
            assert query_rules(applied) == chain, name
        assert conn.queries == []

    @pytest.mark.parametrize("language", BACKENDS)
    def test_get_dummies_forms_only_its_values_query(self, language):
        # the distinct values are fetched by one action; the one-hot
        # projection it returns is a step, formed when read
        conn = RecordingConnector(language)
        pf = PolyFrame("T", "a", conn)
        applied = spy_rules(conn)
        dummies = pf["x"].get_dummies()
        assert query_rules(applied) == ["q1", "q2", "q9", "q2"]
        assert len(conn.queries) == 1
        applied.clear()
        dummies.query
        assert query_rules(applied) == ["q1", "q2", "q2"]

    @pytest.mark.parametrize("language", BACKENDS)
    def test_describe_of_derived_column_forms_its_query_once(self, language):
        stats = ("count", "avg", "std", "min", "max")
        results = [pd.DataFrame({"val": [1]}), pd.DataFrame({f"{f}_val": [1.0] for f in stats})]
        conn = RecordingConnector(language)
        conn.send_query = lambda query, namespace, collection: results.pop(0)
        applied = spy_rules(conn)
        described = (PolyFrame("T", "a", conn)["x"] + 1).describe()
        assert list(described.columns) == ["val"]
        assert applied.count("q7") == 1
        assert len(applied) <= 24
        assert len(conn.queries) == 2

    @pytest.mark.parametrize("language", BACKENDS)
    def test_binary_derivation_forms_no_query_text(self, language):
        conn = RecordingConnector(language)
        pf = PolyFrame("T", "a", conn)
        rows = pf[pf["k"] > 1]
        applied = spy_rules(conn)
        rows["x"] + rows["y"]
        assert applied and query_rules(applied) == []

    @pytest.mark.parametrize("language", BACKENDS)
    def test_equal_frames_built_apart_combine(self, language):
        conn = RecordingConnector(language)
        a, b = PolyFrame("T", "a", conn), PolyFrame("T", "a", conn)
        apart = a[a["k"] > 1]["x"] + b[b["k"] > 1]["y"]
        rows = a[a["k"] > 1]
        assert apart.query == (rows["x"] + rows["y"]).query

    @pytest.mark.parametrize("language", BACKENDS)
    def test_frames_with_different_filters_raise(self, language):
        conn = RecordingConnector(language)
        pf = PolyFrame("T", "a", conn)
        with pytest.raises(ValueError, match="different frames"):
            pf[pf["k"] > 1]["x"] + pf[pf["k"] > 2]["y"]

    @pytest.mark.parametrize("language", BACKENDS)
    def test_query_nests_at_most_256_steps(self, language):
        # q1 and 255 projections form; one projection more raises before
        # anything is sent (DESIGN.md §3, known limits)
        conn = RecordingConnector(language)
        rows = PolyFrame("T", "a", conn)
        for _ in range(255):
            rows = rows[["k", "x"]]
        applied = spy_rules(conn)
        rows.query
        assert query_rules(applied) == ["q1"] + ["q2"] * 255
        deeper = rows[["k", "x"]]
        with nothing_sent(conn), pytest.raises(ValueError, match="at most 256 steps"):
            len(deeper)
        with pytest.raises(ValueError, match="at most 256 steps"):
            rows["x"].query


class TestFilterFusion:
    """A filter of a filter is one q6 of both predicates, joined by the
    ``and`` rule (DESIGN.md §3), so a chain of filters nests one step."""

    @pytest.mark.parametrize("language", BACKENDS)
    def test_filter_of_a_filter_forms_one_q6(self, language):
        conn = RecordingConnector(language)
        pf = PolyFrame("T", "a", conn)
        rows = pf[pf["k"] > 1][pf["x"] == 2]
        applied = spy_rules(conn)
        rows.query
        assert query_rules(applied) == ["q1", "q6"]
        both = pf[(pf["k"] > 1) & (pf["x"] == 2)]
        assert rows.query == both.query
        rows["x"] + both["k"]  # one frame: its columns combine

    def test_len_of_120_chained_filters(self, backend, wdata):
        # 120 nested q6s were past every Spark-backed language's analyzer
        _, conn = backend
        pf, _ = polyframes(conn)
        want = wdata
        for i in range(120):
            pf, want = pf[pf["unique1"] != i], want[want["unique1"] != i]
        assert len(pf) == len(want) == len(wdata) - 120

    def test_len_of_250_chained_filters(self, backend, wdata):
        # their predicates join as a balanced tree, 8 deep: a left fold
        # 250 deep was past every Spark-backed language's parser
        _, conn = backend
        pf, _ = polyframes(conn)
        want = wdata
        for i in range(250):
            pf, want = pf[pf["unique1"] != i], want[want["unique1"] != i]
        assert len(pf) == len(want) == len(wdata) - 250


class TestIdentifierQuoting:
    """A column name and an alias reach the rules in their language's
    ``name_quote`` and ``alias_quote``, each quote inside them doubled."""

    def test_sql_column_doubles_its_quote(self):
        pf = PolyFrame("T", "a", RecordingConnector("sql"))
        assert pf['a"b'].expr == 't."a""b"'

    def test_sql_quoted_name_runs_on_duckdb(self):
        conn, data = DuckDBConnector(), pd.DataFrame({'a"b': [1, 5, 3]})
        conn.register("T", "a", data)
        pf = PolyFrame("T", "a", conn)
        assert pf['a"b'].max() == data['a"b'].max()
        assert pf.sort_values('a"b').toPandas().equals(data.sort_values('a"b', ignore_index=True))

    def test_sparksql_alias_doubles_its_backtick(self):
        pf = PolyFrame("T", "a", RecordingConnector("sparksql"))
        assert pf["a`b"].astype(str).query.startswith("SELECT CAST(t.a`b AS STRING) AS `a``b` FROM")

    @pytest.mark.parametrize("language", ["sparksql", "sqlpp", "cypher"])
    def test_column_name_stays_bare(self, language):
        pf = PolyFrame("T", "a", RecordingConnector(language))
        assert pf["k"].expr == "t.k"


class TestUserDefinedRewrites:
    """Paper §I contribution 4: custom rules swap in at runtime."""

    @pytest.mark.parametrize("language", BACKENDS)
    def test_rule_set_after_building_applies_at_next_action(self, language):
        conn = RecordingConnector(language)
        pf = PolyFrame("T", "a", conn)
        rows = pf[pf["k"] > 1]
        rows.head(3)
        conn.rules.set("q1", "SCAN $namespace $collection")
        rows.head(3)
        assert "SCAN T a" not in conn.queries[0]
        assert "SCAN T a" in conn.last_query

    @pytest.mark.parametrize("language", BACKENDS)
    def test_expression_rule_set_after_building_applies_to_later_operations(self, language):
        # an operation's expression (here a filter's predicate) is formed
        # when the operation is built, so a rule set afterwards forms only
        # the expressions built after it (DESIGN.md §3)
        conn = RecordingConnector(language)
        pf = PolyFrame("T", "a", conn)
        before = pf[pf["k"] > 1]
        conn.rules.set("gt", "GT($left, $right)")
        after = pf[pf["k"] > 1]
        assert "GT(" not in before.query
        assert "GT(" in after.query

    def test_custom_limit_rule_changes_head(self, spark, wdata):
        from repro.backends.spark import SparkConnector

        rules = load_language("sparksql").copy()
        # leverage a Spark-specific capability: TABLESAMPLE via user rewrite
        rules.set("limit", "$subquery\nLIMIT $num")
        conn = SparkConnector(spark, rules=rules)
        conn.register("U", "w", wdata)
        pf = PolyFrame("U", "w", conn)
        assert len(pf.head(4)) == 4

    def test_custom_rule_is_used_verbatim(self):
        rules = load_language("sparksql").copy()
        rules.set("q3", "SELECT COUNT(1) AS n FROM ($subquery) z")
        conn = RecordingConnector("sparksql", rules=rules)
        pf = PolyFrame("T", "U", conn)
        try:
            len(pf)
        except Exception:
            pass  # RecordingConnector returns a dummy frame; text matters
        assert conn.last_query.startswith("SELECT COUNT(1) AS n FROM")


class TestToPandas:
    def test_full_materialization(self, backend, wdata):
        _, conn = backend
        pf, _ = polyframes(conn)
        out = pf[["unique1"]].toPandas()
        assert sorted(out["unique1"]) == sorted(wdata["unique1"])

    @pytest.mark.parametrize("n", [2.5, "2"])
    def test_head_non_integer_raises(self, backend, n):
        # as pandas does
        _, conn = backend
        pf, _ = polyframes(conn)
        with pytest.raises(TypeError):
            pf.head(n)

    def test_head_negative_raises(self, backend):
        # pandas' head(-1) drops the last row, which a LIMIT cannot form
        _, conn = backend
        pf, _ = polyframes(conn)
        with pytest.raises(ValueError, match="negative"):
            pf.head(-1)

    def test_head_numpy_integer(self, backend):
        _, conn = backend
        pf, _ = polyframes(conn)
        assert len(pf.head(np.int64(2))) == 2

    def test_collect_alias(self, backends):
        pf, _ = polyframes(backends["sparksql"])
        assert len(pf[["two"]].collect()) == len(pf[["two"]].toPandas())
