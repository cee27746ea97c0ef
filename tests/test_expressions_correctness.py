"""Correctness matrix: 13 benchmark expressions × 5 live backends.

Every expression of Table III runs through the full PolyFrame path
(pandas-style op → rewrite rules → query text → connector → engine) on
each backend, and its result is checked against

* the DuckDB oracle (``repro.oracle``) for deterministic results, and
* the literal pandas expression (the paper's baseline) for everything,
* membership checks for LIMIT-without-ORDER BY samples, where *any* five
  qualifying rows are a correct answer.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.bench.expressions import EXPRESSIONS, BY_ID, X
from tests.conftest import check_frame, check_sample, duck_scalar, polyframes

SCALAR_IDS = [e.id for e in EXPRESSIONS if e.kind == "scalar"]
FRAME_IDS = [e.id for e in EXPRESSIONS if e.kind == "frame"]
SAMPLE_IDS = [e.id for e in EXPRESSIONS if e.kind == "sample"]


@pytest.mark.parametrize("expr_id", SCALAR_IDS)
def test_scalar_expressions_match_oracle(backend, wdata, wdata2, expr_id):
    _, conn = backend
    e = BY_ID[expr_id]
    pf, pf2 = polyframes(conn)
    got = e.poly_fn(pf, pf2)
    want = duck_scalar(e.oracle_sql, data=wdata, data2=wdata2)
    assert got == want, f"expr {expr_id} on {backend[0]}: {got} != oracle {want}"


@pytest.mark.parametrize("expr_id", SCALAR_IDS)
def test_scalar_expressions_match_pandas(backend, wdata, wdata2, expr_id):
    _, conn = backend
    e = BY_ID[expr_id]
    pf, pf2 = polyframes(conn)
    assert e.poly_fn(pf, pf2) == e.pandas_fn(wdata, wdata2)


@pytest.mark.parametrize("expr_id", FRAME_IDS)
def test_frame_expressions_match_oracle(backend, wdata, wdata2, expr_id):
    _, conn = backend
    e = BY_ID[expr_id]
    pf, pf2 = polyframes(conn)
    result = e.poly_fn(pf, pf2)
    assert isinstance(result, pd.DataFrame)
    check_frame(result, e.oracle_sql, data=wdata, data2=wdata2)


class TestSamples:
    """LIMIT without ORDER BY: any n qualifying rows are correct."""

    @pytest.mark.parametrize("expr_id", SAMPLE_IDS)
    def test_sample_is_drawn_from_its_pool(self, backend, wdata, expr_id):
        _, conn = backend
        check_sample(BY_ID[expr_id].poly_fn(*polyframes(conn)), expr_id, wdata)

    def test_head_n_parameter(self, backend):
        _, conn = backend
        pf, _ = polyframes(conn)
        assert len(pf[["two"]].head(7)) == 7


class TestExpr9SortDeterministic:
    def test_sorted_rows_equal_pandas(self, backend, wdata):
        _, conn = backend
        pf, _ = polyframes(conn)
        got = (
            pf.sort_values("unique1", ascending=False)
            .head()
            .sort_values("unique1", ascending=False)
            .reset_index(drop=True)
        )
        want = (
            wdata.sort_values("unique1", ascending=False)
            .head()
            .reset_index(drop=True)
        )
        assert got["unique1"].tolist() == want["unique1"].tolist()
        assert set(got.columns) == set(want.columns)
        cols = sorted(c for c in got.columns if c != "tenPercent")
        pd.testing.assert_frame_equal(
            got[cols].reset_index(drop=True),
            want[cols].reset_index(drop=True),
            check_dtype=False,
        )

    def test_sort_ascending(self, backend, wdata):
        _, conn = backend
        pf, _ = polyframes(conn)
        got = pf.sort_values("unique1").head(3)
        assert sorted(got["unique1"].tolist()) == [0, 1, 2]


class TestLazyUntilAction:
    """§III-B: transformations never touch the backend."""

    def test_deep_transformation_chain_sends_nothing(self, backend):
        name, conn = backend
        sent = []
        original = conn.send_query

        def spy(query, namespace, collection):
            sent.append(query)
            return original(query, namespace, collection)

        conn.send_query = spy
        try:
            pf, pf2 = polyframes(conn)
            chained = pf[pf["ten"] == X][["unique1", "two", "four"]].sort_values(
                "unique1", ascending=False
            )
            merged = pf.merge(pf2, on="unique1")
            grouped = pf.groupby("twenty")["four"].agg("max")
            assert sent == []  # still lazy
            chained.head(2)
            assert len(sent) == 1  # exactly one query per action
            len(merged)
            grouped.toPandas()
            assert len(sent) == 3
        finally:
            conn.send_query = original
