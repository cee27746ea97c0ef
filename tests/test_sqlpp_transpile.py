"""Unit tests for the SQL++ → Spark SQL transpiler (no SparkSession).

The cases mirror the paper's Appendix A/E query shapes.
"""
from __future__ import annotations

import pytest

from repro.sqlpp.transpile import transpile


class TestSelectValue:
    def test_bare_variable_becomes_star(self):
        assert (
            transpile("SELECT VALUE t FROM Test.Users t")
            == "SELECT t.* FROM Test_Users t"
        )

    def test_nested_bare_variables(self):
        q = "SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t"
        assert transpile(q) == "SELECT t.* FROM (SELECT t.* FROM Test_Users t) t"

    def test_expression_value_gets_alias(self):
        q = "SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM Test.Users t) t"
        assert (
            transpile(q)
            == "SELECT (COUNT(*)) AS val FROM (SELECT t.* FROM Test_Users t) t"
        )

    def test_comparison_value(self):
        q = "SELECT VALUE t.lang = 'en' FROM (SELECT VALUE t FROM Test.Users t) t"
        out = transpile(q)
        assert out.startswith("SELECT (t.lang = 'en') AS val FROM")

    def test_distinct_value(self):
        # no rule emits SELECT DISTINCT VALUE, so the transpiler refuses it
        q = "SELECT DISTINCT VALUE t.a FROM (SELECT VALUE t FROM Test.U t) t"
        with pytest.raises(ValueError, match="DISTINCT"):
            transpile(q)

    def test_missing_from_raises(self):
        with pytest.raises(ValueError, match="without matching FROM"):
            transpile("SELECT VALUE COUNT(*)")


class TestDatasets:
    def test_namespace_flattening(self):
        assert "FROM A_B t" in transpile("SELECT VALUE t FROM A.B t")

    def test_subquery_from_untouched(self):
        q = "SELECT t.a FROM (SELECT VALUE t FROM A.B t) t"
        assert transpile(q) == "SELECT t.a FROM (SELECT t.* FROM A_B t) t"


class TestPredicates:
    def test_is_unknown(self):
        q = "SELECT VALUE t FROM A.B t WHERE t.x IS UNKNOWN"
        assert transpile(q).endswith("WHERE t.x IS NULL")

    def test_is_known(self):
        q = "SELECT VALUE t FROM A.B t WHERE t.x IS KNOWN"
        assert transpile(q).endswith("WHERE t.x IS NOT NULL")


class TestJoin:
    def test_record_pair_select_becomes_structs(self):
        q = (
            "SELECT VALUE COUNT(*) FROM (SELECT l, r FROM "
            "(SELECT VALUE t FROM A.B t) l JOIN (SELECT VALUE t FROM A.C t) r "
            "ON l.k = r.k) t"
        )
        out = transpile(q)
        assert "SELECT struct(l.*) AS l, struct(r.*) AS r FROM" in out

    def test_qualified_projection_not_mistaken_for_join_pair(self):
        q = "SELECT t.two, t.four FROM (SELECT VALUE t FROM A.B t) t"
        assert "struct" not in transpile(q)


class TestTypeConversions:
    def test_to_bigint(self):
        q = "SELECT VALUE to_bigint(t.a = 1) FROM A.B t"
        assert "bigint(t.a = 1)" in transpile(q)

    def test_to_string_nested_parens(self):
        q = "SELECT VALUE to_string(f(t.a, g(t.b))) FROM A.B t"
        assert "string(f(t.a, g(t.b)))" in transpile(q)


class TestCosmetics:
    def test_trailing_semicolon_stripped(self):
        assert not transpile("SELECT VALUE t FROM A.B t;").endswith(";")

    def test_multiline_preserved(self):
        q = "SELECT VALUE t FROM A.B t\nLIMIT 10"
        assert transpile(q).endswith("LIMIT 10")


class TestExecutesOnSpark:
    """The transpiled Appendix-E shapes must actually run on Spark."""

    @pytest.fixture(scope="class")
    def view(self, spark):
        import pandas as pd

        spark.createDataFrame(
            pd.DataFrame({"a": [1, 2, 3], "lang": ["en", "fr", "en"]})
        ).createOrReplaceTempView("T_U")
        return "T.U"

    def test_count(self, spark, view):
        q = transpile("SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM T.U t) t")
        assert spark.sql(q).toPandas().iloc[0, 0] == 3

    def test_filter_project(self, spark, view):
        q = transpile(
            "SELECT t.a FROM (SELECT VALUE t FROM (SELECT VALUE t FROM T.U t) t "
            "WHERE t.lang = 'en') t"
        )
        assert sorted(spark.sql(q).toPandas()["a"]) == [1, 3]

    def test_join_structs(self, spark, view):
        q = transpile(
            "SELECT VALUE COUNT(*) FROM (SELECT l, r FROM "
            "(SELECT VALUE t FROM T.U t) l JOIN (SELECT VALUE t FROM T.U t) r "
            "ON l.a = r.a) t"
        )
        assert spark.sql(q).toPandas().iloc[0, 0] == 3
