"""PolyFrame API behaviour: operators, errors, laziness, user rewrites.

Most tests run against the Spark backend (the repro target); pure
formation behaviour uses the RecordingConnector.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.bench.recording import RecordingConnector
from repro.core import DatasetNotRegistered, PolyFrame
from repro.core.rewrite import load_language
from tests.conftest import polyframes


@pytest.fixture()
def spf(backends):
    """A PolyFrame on the Spark backend."""
    return polyframes(backends["sparksql"])[0]


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
        # quotes and backslashes must reach every backend in its own
        # string syntax: 'it''s' on DuckDB, 'it\'s' on Spark SQL, ...;
        # and neither text translators nor rewrite variables may rewrite
        # inside a literal
        _, conn = backend
        values = ["it's", "a\\b", 'q"d', "t.name", "a IS UNKNOWN", "$subquery", "$num"]
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
        with pytest.raises(ValueError, match="unsupported map"):
            spf["unique1"].map(len)

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

    def test_selective_join(self, backends, wdata):
        pf, pf2 = polyframes(backends["sparksql"])
        filtered = pf[pf["ten"] == 3]
        got = len(filtered.merge(pf2, on="unique1"))
        assert got == int((wdata["ten"] == 3).sum())


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


class TestUserDefinedRewrites:
    """Paper §I contribution 4: custom rules swap in at runtime."""

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

    def test_collect_alias(self, backends):
        pf, _ = polyframes(backends["sparksql"])
        assert len(pf[["two"]].collect()) == len(pf[["two"]].toPandas())
