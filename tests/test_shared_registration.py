"""One frame registered under both benchmark names is stored once.

``register_dataset(conn, pdf, pdf)``, as the jobs and perfbench call it,
stores ``pdf`` once per backend and makes ``wisconsin2`` an alias of
``wisconsin``: a DuckDB view over the one table, a Spark temp view of the
one loaded DataFrame. Distinct frames (the ``backends`` fixture's ``wdata`` and
``wdata.copy()``) stay two copies.
"""
from __future__ import annotations

import pytest

from repro.backends.spark import view_name
from repro.bench.expressions import EXPRESSIONS
from repro.bench.harness import (
    BACKENDS,
    COLLECTION,
    COLLECTION2,
    NAMESPACE,
    make_connector,
    register_dataset,
)
from tests.conftest import check_frame, check_sample, duck_scalar, polyframes


def duck_objects(conn) -> tuple[list[str], list[str]]:
    """The benchmark namespace's tables and views on a DuckDB connector."""
    where = f"WHERE schema_name = '{NAMESPACE}' ORDER BY 1"
    tables = conn.con.sql(f"SELECT table_name FROM duckdb_tables() {where}").fetchall()
    views = conn.con.sql(f"SELECT view_name FROM duckdb_views() {where}").fetchall()
    return [t for t, in tables], [v for v, in views]


def scanned_rdd(spark, collection: str) -> int:
    """The id of the stored RDD that the optimized plan of a benchmark
    dataset scans."""
    plan = spark.table(view_name(NAMESPACE, collection))._jdf.queryExecution().optimizedPlan()
    assert plan.getClass().getSimpleName() == "LogicalRDD", plan.toString()
    return plan.rdd().id()


@pytest.fixture(scope="class")
def shared(spark, wdata, wdata2) -> dict:
    """All five backends with ``wdata`` registered under both names."""
    conns = {}
    for kind in BACKENDS:
        conns[kind] = make_connector(kind, spark)
        register_dataset(conns[kind], wdata, wdata)
    yield conns
    # the Spark views belong to the session: give back the two copies the
    # ``backends`` fixture registered
    register_dataset(make_connector("sparksql", spark), wdata, wdata2)


class TestOneCopy:
    def test_duckdb_stores_one_table_and_a_view(self, shared):
        assert duck_objects(shared["sql"]) == ([COLLECTION], [COLLECTION2])

    def test_spark_names_scan_one_rdd(self, spark, shared):
        assert scanned_rdd(spark, COLLECTION) == scanned_rdd(spark, COLLECTION2)

    @pytest.mark.parametrize("e", EXPRESSIONS, ids=lambda e: f"expr{e.id}")
    def test_expressions_match_oracle_and_pandas(self, shared, wdata, e):
        # expression 12 is a self-join of the one stored copy
        for name, conn in shared.items():
            got = e.poly_fn(*polyframes(conn))
            if e.kind == "scalar":
                assert got == e.pandas_fn(wdata, wdata), name
                assert got == duck_scalar(e.oracle_sql, data=wdata, data2=wdata), name
            elif e.kind == "frame":
                check_frame(got, e.oracle_sql, data=wdata, data2=wdata)
            else:
                check_sample(got, e.id, wdata)


class TestTwoCopies:
    def test_duckdb_stores_two_tables(self, backends):
        assert duck_objects(backends["sql"]) == ([COLLECTION, COLLECTION2], [])

    def test_spark_names_scan_two_rdds(self, spark, backends):
        assert scanned_rdd(spark, COLLECTION) != scanned_rdd(spark, COLLECTION2)
