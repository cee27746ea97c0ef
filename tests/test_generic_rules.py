"""Generic rules (paper §III-C-2): describe() and get_dummies().

Generic rules are not templates in the language configs — they are
composed at runtime from chains of language-specific rules. Both are
exercised on every backend and checked against pandas.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.bench.harness import BACKENDS
from tests.conftest import polyframes

NUMERIC_SUBSET = ["unique1", "two", "onePercent"]

#: frame name -> a frame of the two benchmark frames, for ``describe()``
DESCRIBED = {
    "dataset": lambda pf, pf2: pf,
    "projection": lambda pf, pf2: pf[["ten", "stringu1", "two"]],
    "filtered-column": lambda pf, pf2: pf[pf["two"] == 1]["ten"],
    "computed-column": lambda pf, pf2: pf["ten"] + 1,
    "group-by": lambda pf, pf2: pf.groupby("four")["ten"].agg("max"),
    "get-dummies": lambda pf, pf2: pf["four"].get_dummies(),
    "merge": lambda pf, pf2: pf.merge(pf2, on="unique1"),
    "string-column": lambda pf, pf2: pf["stringu1"],
}

#: input name -> a column of a frame, pandas or PolyFrame, to one-hot encode
DUMMIES = {
    "attribute": lambda f: f["four"],
    "filtered-series": lambda f: f["string4"][f["two"] == 1],
    "comparison": lambda f: f["ten"] > 5,
    "float-with-nulls": lambda f: f["tenPercent"],
}

#: SQL++ writes a get_dummies alias unquoted, and ``tenPercent_1.0`` does
#: not parse (DESIGN.md §3, known limits)
DUMMIES_SQLPP_LEFT_OUT = {"float-with-nulls"}

#: (frame, backend) whose ``toPandas()`` has no numeric column of a unique
#: name: a string column; a sparksql join's ``l.*, r.*`` repeats every name,
#: and a SQL++ join returns the structs ``l`` and ``r``
UNDESCRIBABLE = {("string-column", b) for b in BACKENDS} | {
    ("merge", "sparksql"),
    ("merge", "sqlpp"),
}


class TestDescribe:
    def test_shape_and_stats_index(self, backend):
        _, conn = backend
        pf, _ = polyframes(conn)
        d = pf.describe(columns=NUMERIC_SUBSET)
        assert list(d.index) == ["count", "avg", "std", "min", "max"]
        assert list(d.columns) == NUMERIC_SUBSET

    @pytest.mark.parametrize("col", NUMERIC_SUBSET)
    def test_count_min_max_avg_match_pandas(self, backend, wdata, col):
        _, conn = backend
        pf, _ = polyframes(conn)
        d = pf.describe(columns=[col])
        assert d.loc["count", col] == wdata[col].count()
        assert d.loc["min", col] == wdata[col].min()
        assert d.loc["max", col] == wdata[col].max()
        assert d.loc["avg", col] == pytest.approx(wdata[col].mean())

    def test_std_kind_matches_language_declaration(self, backend, wdata):
        """Paper Fig. 3 row 7: STDDEV (sample) for SQL++/SQL vs
        stdDevPop/stDevP (population) for MongoDB/Cypher."""
        name, conn = backend
        pf, _ = polyframes(conn)
        d = pf.describe(columns=["unique1"])
        ddof = 1 if conn.rules.meta("std_kind") == "sample" else 0
        assert d.loc["std", "unique1"] == pytest.approx(
            wdata["unique1"].std(ddof=ddof)
        )

    def test_describe_skips_missing_in_count(self, backend, wdata):
        _, conn = backend
        pf, _ = polyframes(conn)
        d = pf.describe(columns=["tenPercent"])
        assert d.loc["count", "tenPercent"] == wdata["tenPercent"].count()

    def test_describe_infers_numeric_columns(self, backend):
        _, conn = backend
        pf, _ = polyframes(conn)
        d = pf.describe()
        assert "unique1" in d.columns
        assert "stringu1" not in d.columns  # strings are not described

    def test_describe_projection_matches_pandas(self, backend):
        # describe() of any frame describes the non-bool numeric columns of
        # its own toPandas(), as pandas does, or raises ValueError when
        # their names repeat or there are none
        name, conn = backend
        ddof = 1 if conn.rules.meta("std_kind") == "sample" else 0
        for frame, make in DESCRIBED.items():
            pf = make(*polyframes(conn))
            want = pf.toPandas().select_dtypes("number")
            if (frame, name) in UNDESCRIBABLE:
                assert want.columns.has_duplicates or want.columns.empty, frame
                with pytest.raises(ValueError):
                    pf.describe()
                continue
            got = pf.describe()
            assert list(got.columns) == list(want.columns), frame
            stats = [want.count(), want.mean(), want.std(ddof=ddof)]
            stats += [want.min(), want.max()]
            assert got.to_numpy() == pytest.approx(pd.DataFrame(stats).to_numpy()), frame

    def test_describe_of_a_column_is_that_of_its_one_column_frame(self, backend):
        # a column is no frame, but keeps a frame's actions
        pf, _ = polyframes(backend[1])
        pd.testing.assert_frame_equal(pf["unique1"].describe(), pf[["unique1"]].describe())

    def test_describe_is_single_query(self, backend):
        name, conn = backend
        pf, _ = polyframes(conn)
        sent = []
        original = conn.send_query
        conn.send_query = lambda q, n, c: (sent.append(q), original(q, n, c))[1]
        try:
            pf.describe(columns=NUMERIC_SUBSET)
        finally:
            conn.send_query = original
        assert len(sent) == 1  # one composed query, not 15


class TestGetDummies:
    def test_one_hot_matches_pandas(self, backend, wdata):
        # one column per non-NULL value, named after the PolyFrame column
        # and the value, with pandas' count of each and one row per value
        name, conn = backend
        pf, _ = polyframes(conn)
        for column, make in DUMMIES.items():
            if name == "sqlpp" and column in DUMMIES_SQLPP_LEFT_OUT:
                continue
            series = make(pf)
            got = series.get_dummies().toPandas()
            want = pd.get_dummies(make(wdata)).astype(int)
            assert sorted(got.columns) == sorted(f"{series.name}_{v}" for v in want.columns), column
            assert got.shape[0] == len(want), column
            for v in want.columns:
                assert int(got[f"{series.name}_{v}"].sum()) == int(want[v].sum()), column

    def test_rows_are_exactly_one_hot(self, backend):
        _, conn = backend
        pf, _ = polyframes(conn)
        got = pf["two"].get_dummies().toPandas()
        assert (got.sum(axis=1) == 1).all()
        assert set(got.values.ravel().tolist()) <= {0, 1}

    def test_get_dummies_on_string_column(self, backend, wdata):
        _, conn = backend
        pf, _ = polyframes(conn)
        got = pf["string4"].get_dummies().toPandas()
        assert got.shape[1] == wdata["string4"].nunique()

    def test_projection_is_lazy(self, backend):
        """get_dummies runs one distinct query; the projection itself is a
        transformation until materialized."""
        _, conn = backend
        pf, _ = polyframes(conn)
        sent = []
        original = conn.send_query
        conn.send_query = lambda q, n, c: (sent.append(q), original(q, n, c))[1]
        try:
            lazy = pf["two"].get_dummies()
            assert len(sent) == 1  # distinct-values action only
            lazy.head(2)
            assert len(sent) == 2
        finally:
            conn.send_query = original
