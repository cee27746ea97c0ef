"""Catalyst plan tests: the optimizer requirement of §III-C.

The paper: "Executing subqueries without any optimization could result in
unnecessary data scans ... an efficient query optimizer" is required of
every PolyFrame backend. On the Spark retarget that optimizer is
Catalyst; these tests pin the property the whole lazy-subquery design
relies on — deeply nested generated queries collapse to flat plans with a
single scan, instead of materializing per-operation intermediates.

Data is parquet-backed (a pandas-local relation would constant-fold away
entirely, proving nothing about scan behaviour).
"""
from __future__ import annotations

import pytest

from repro.backends.spark import SparkConnector
from repro.bench.expressions import EXPRESSIONS
from repro.core import PolyFrame
from repro.wisconsin.generator import wisconsin_pdf
from tests.conftest import polyframes


@pytest.fixture(scope="module")
def parquet_conn(spark, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("wisconsin_parquet"))
    spark.createDataFrame(wisconsin_pdf(1_000, seed=3)).write.mode(
        "overwrite"
    ).parquet(path)
    conn = SparkConnector(spark)
    conn.register("Plan", "w", spark.read.parquet(path))
    conn.register("Plan", "w2", spark.read.parquet(path))
    return conn


def optimized_plan(conn: SparkConnector, query: str) -> str:
    return conn.spark.sql(query)._jdf.queryExecution().optimizedPlan().toString()


def test_nested_projections_collapse_to_single_project(parquet_conn):
    pf = PolyFrame("Plan", "w", parquet_conn)
    q = pf[["unique1", "two", "four"]][["unique1", "two"]][["unique1"]].query
    plan = optimized_plan(parquet_conn, q)
    assert plan.count("Project") == 1  # CollapseProject
    assert plan.count("Relation") == 1  # one scan, no intermediates


def test_filter_pushed_to_scan(parquet_conn):
    pf = PolyFrame("Plan", "w", parquet_conn)
    q = pf[pf["ten"] == 3][["unique1"]].query
    plan = optimized_plan(parquet_conn, q)
    assert plan.count("Relation") == 1
    assert plan.count("Filter") == 1  # PushDownPredicates merged the chain
    # the filter sits below the projection in the collapsed plan
    assert plan.index("Filter") > plan.index("Project")


def test_conjunctive_filters_merge(parquet_conn):
    pf = PolyFrame("Plan", "w", parquet_conn)
    q = pf[(pf["ten"] == 3) & (pf["two"] == 1)][pf["four"] == 3].query
    plan = optimized_plan(parquet_conn, q)
    assert plan.count("Filter") == 1  # CombineFilters


def test_table1_chain_is_flat(parquet_conn):
    """The full Table I operation chain: one scan, one filter, one project."""
    pf = PolyFrame("Plan", "w", parquet_conn)
    q = pf[pf["string4"] == "AAAA" + "x" * 48][["unique1", "two"]].query
    limited = parquet_conn.rules.apply("limit", subquery=q, num=10)
    plan = optimized_plan(parquet_conn, limited)
    assert plan.count("Relation") == 1
    assert plan.count("Filter") == 1
    assert "GlobalLimit" in plan


def test_join_has_exactly_two_scans(parquet_conn):
    pf = PolyFrame("Plan", "w", parquet_conn)
    pf2 = PolyFrame("Plan", "w2", parquet_conn)
    q = parquet_conn.rules.apply(
        "q3", subquery=pf.merge(pf2, on="unique1").query
    )
    plan = optimized_plan(parquet_conn, q)
    assert plan.count("Relation") == 2
    assert "Join Inner" in plan


def test_count_prunes_columns(parquet_conn):
    """ColumnPruning: a COUNT(*) over the nested chain must not read all 16
    Wisconsin attributes from parquet."""
    pf = PolyFrame("Plan", "w", parquet_conn)
    q = parquet_conn.rules.apply("q3", subquery=pf[pf["ten"] == 3].query)
    plan = optimized_plan(parquet_conn, q)
    assert "stringu1" not in plan.split("Relation")[0]  # not in Aggregate/Project


@pytest.mark.parametrize("name", ["mongo", "cypher"])
def test_join_is_one_equi_join(backends, monkeypatch, name):
    """Expression 12 (Join & Count) on the mongo and cypher backends runs as
    one equi-join: mongo's ``$lookup`` + ``$unwind`` and cypher's
    ``MATCH (r) WHERE t.a = r.b`` are not a ``collect_list`` aggregate
    joined and then exploded (a ``Generate``)."""
    conn = backends[name]
    built = []
    execute = conn.engine.execute

    def record(*args):
        built.append(execute(*args))
        return built[-1]

    monkeypatch.setattr(conn.engine, "execute", record)
    join_count = next(e for e in EXPRESSIONS if e.id == 12)
    join_count.poly_fn(*polyframes(conn))
    plan = built[-1]._jdf.queryExecution().optimizedPlan().toString()
    assert "Join Inner" in plan
    assert "Generate" not in plan
    assert "collect_list" not in plan
