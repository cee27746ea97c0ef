"""Database connector contract tests (paper §III-A).

The paper requires three methods from a new backend: initialization,
query pre-processing / sending, and result post-processing — with all
results delivered as pandas DataFrames.
"""
from __future__ import annotations

import math

import duckdb
import pandas as pd
import pytest

from repro.bench.expressions import EXPRESSIONS
from repro.bench.harness import BACKENDS
from repro.core import DatasetNotRegistered, DBConnector, PolyFrame
from repro.core.connector import DBConnector as ABCConnector
from repro.wisconsin.generator import wisconsin_pdf
from tests.conftest import polyframes

#: the connectors with ``get_columns``: the Mongo compiler scans with it
SPARK_BACKENDS = [b for b in BACKENDS if b != "sql"]


class TestContract:
    def test_results_are_pandas(self, backend):
        _, conn = backend
        pf, _ = polyframes(conn)
        out = pf[["two"]].head(2)
        assert isinstance(out, pd.DataFrame)

    def test_initialize_raises_for_unknown(self, backend):
        _, conn = backend
        with pytest.raises(DatasetNotRegistered):
            conn.initialize("NoSuch", "dataset")

    def test_rules_language_matches_connector(self, backend):
        name, conn = backend
        assert conn.rules.meta("language") == conn.language == name

    @pytest.mark.parametrize("backend", SPARK_BACKENDS, indirect=True)
    def test_get_columns_reports_schema(self, backend, wdata):
        from repro.bench.harness import COLLECTION, NAMESPACE

        _, conn = backend
        assert conn.get_columns(NAMESPACE, COLLECTION) == list(wdata.columns)

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            ABCConnector()  # abstract methods missing

    def test_execute_pipeline_order(self):
        """execute = postprocess(send(preprocess(q))) — the paper's flow."""
        calls = []

        class Probe(DBConnector):
            language = "sparksql"

            def initialize(self, namespace, collection):
                calls.append("init")

            def preprocess(self, query, namespace, collection):
                calls.append("pre")
                return query + "/*pre*/"

            def send_query(self, query, namespace, collection):
                calls.append(("send", query.endswith("/*pre*/")))
                return pd.DataFrame([[1]])

            def postprocess(self, result):
                calls.append("post")
                return result

        probe = Probe()
        pf = PolyFrame("N", "C", probe)
        len(pf)
        assert calls == ["init", "pre", ("send", True), "post"]


def spark_backed(spark) -> list[DBConnector]:
    """A fresh instance of each of the four Spark-backed connectors."""
    from repro.backends.engines import CypherConnector, MongoConnector, SqlPPConnector
    from repro.backends.spark import SparkConnector

    kinds = (SparkConnector, SqlPPConnector, MongoConnector, CypherConnector)
    return [kind(spark) for kind in kinds]


class TestNamespaceIsolation:
    def test_same_collection_two_namespaces(self, spark, wdata):
        for conn in spark_backed(spark):
            conn.register("A", "w", wdata.head(10))
            conn.register("B", "w", wdata.head(20))
            assert len(PolyFrame("A", "w", conn)) == 10, conn.language
            assert len(PolyFrame("B", "w", conn)) == 20, conn.language

    def test_duckdb_schema_isolation(self, wdata):
        from repro.backends.duck import DuckDBConnector

        conn = DuckDBConnector()
        conn.register("A", "w", wdata.head(5))
        conn.register("B", "w", wdata.head(7))
        assert len(PolyFrame("A", "w", conn)) == 5
        assert len(PolyFrame("B", "w", conn)) == 7

    def test_reregistration_replaces(self, spark, wdata):
        from repro.backends.duck import DuckDBConnector

        for conn in (DuckDBConnector(), *spark_backed(spark)):
            conn.register("A", "w", wdata.head(5))
            conn.register("A", "w", wdata.head(9))
            assert len(PolyFrame("A", "w", conn)) == 9, conn.language

    def test_names_joining_to_one_view_are_refused(self, spark):
        # A_B.c and A.B_c both map to the temp view A_B_c
        for conn in spark_backed(spark):
            conn.register("A_B", "c", pd.DataFrame({"x": range(3)}))
            with pytest.raises(ValueError, match="A_B_c"):
                conn.register("A", "B_c", pd.DataFrame({"x": range(5)}))
            assert len(PolyFrame("A_B", "c", conn)) == 3, conn.language
            with pytest.raises(ValueError, match="A_B_c"):
                conn.initialize("A", "B_c")

    def test_names_joining_to_one_view_in_another_case_are_refused(self, spark):
        # Spark matches temp-view names without regard to case, so Ci_B.c
        # and ci.B_c would read one view
        for conn in spark_backed(spark):
            conn.register("Ci_B", "c", pd.DataFrame({"x": range(3)}))
            with pytest.raises(ValueError, match="holds view"):
                conn.register("ci", "B_c", pd.DataFrame({"x": range(5)}))
            assert len(PolyFrame("Ci_B", "c", conn)) == 3, conn.language
            with pytest.raises(ValueError, match="holds view"):
                conn.initialize("ci", "B_c")

    def test_one_name_in_two_cases_is_one_dataset(self, spark, wdata):
        # Cs.w and cs.W are one dataset to Spark and to DuckDB alike
        from repro.backends.duck import DuckDBConnector

        for conn in (DuckDBConnector(), *spark_backed(spark)):
            conn.register("Cs", "w", wdata.head(4))
            conn.register("cs", "W", wdata.head(6))
            assert len(PolyFrame("Cs", "w", conn)) == 6, conn.language
            assert len(PolyFrame("cs", "W", conn)) == 6, conn.language

    def test_collision_across_connectors_is_refused(self, spark):
        # the registry belongs to the session: a dataset registered through
        # one connector holds its view for every other connector
        first, *others = spark_backed(spark)
        first.register("X_Y", "z", pd.DataFrame({"x": range(3)}))
        for conn in others:
            with pytest.raises(ValueError, match="X_Y_z"):
                conn.register("X", "Y_z", pd.DataFrame({"x": range(5)}))
            with pytest.raises(ValueError, match="X_Y_z"):
                conn.initialize("X", "Y_z")
            assert len(PolyFrame("X_Y", "z", conn)) == 3, conn.language


class TestAlias:
    """``alias`` gives a registered dataset a second name and stores no
    copy; registering its target re-points it, so it reads what its target
    holds now."""

    @staticmethod
    def connectors(spark) -> list:
        from repro.backends.duck import DuckDBConnector

        return [DuckDBConnector(), *spark_backed(spark)]

    def test_alias_reads_the_target_as_it_is_now(self, spark):
        for conn in self.connectors(spark):
            conn.register("Al", "w", pd.DataFrame({"x": range(3)}))
            conn.alias("Al", "w2", "w")
            assert len(PolyFrame("Al", "w2", conn)) == 3, conn.language
            conn.register("Al", "w", pd.DataFrame({"x": range(10, 15)}))
            alias = PolyFrame("Al", "w2", conn)
            assert (len(alias), alias["x"].max()) == (5, 14), conn.language

    def test_register_replaces_an_alias_and_alias_a_copy(self, spark):
        for conn in self.connectors(spark):
            conn.register("Al", "v", pd.DataFrame({"x": range(3)}))
            conn.alias("Al", "v2", "v")
            conn.register("Al", "v2", pd.DataFrame({"x": range(7)}))
            assert len(PolyFrame("Al", "v2", conn)) == 7, conn.language
            assert len(PolyFrame("Al", "v", conn)) == 3, conn.language
            conn.alias("Al", "v2", "v")
            assert len(PolyFrame("Al", "v2", conn)) == 3, conn.language

    def test_alias_of_an_unknown_dataset(self, spark):
        for conn in self.connectors(spark):
            with pytest.raises(DatasetNotRegistered):
                conn.alias("Al", "u2", "nope")

    def test_alias_of_itself_keeps_the_data(self, spark):
        for conn in self.connectors(spark):
            conn.register("Al", "s", pd.DataFrame({"x": range(3)}))
            with pytest.raises(ValueError, match="itself"):
                conn.alias("Al", "S", "s")
            assert len(PolyFrame("Al", "s", conn)) == 3, conn.language

    def test_alias_through_its_own_alias_keeps_the_data(self, spark):
        for conn in self.connectors(spark):
            conn.register("Al", "c", pd.DataFrame({"x": range(3)}))
            conn.alias("Al", "c2", "c")
            conn.alias("Al", "c3", "c2")
            with pytest.raises(ValueError, match="itself"):
                conn.alias("Al", "c", "c3")
            assert len(PolyFrame("Al", "c", conn)) == 3, conn.language

    def test_alias_reads_the_target_in_its_new_columns(self, spark):
        for conn in self.connectors(spark):
            conn.register("Al", "n", pd.DataFrame({"x": range(3)}))
            conn.alias("Al", "n2", "n")
            conn.alias("Al", "n3", "n2")
            conn.register("Al", "n", pd.DataFrame({"y": [7, 8], "x": [1, 2]}))
            for name in ("n2", "n3"):
                got = PolyFrame("Al", name, conn).toPandas()
                assert got.to_dict("list") == {"y": [7, 8], "x": [1, 2]}, conn.language

    def test_register_on_the_alias_detaches_it(self, spark):
        for conn in self.connectors(spark):
            conn.register("Al", "d", pd.DataFrame({"x": range(3)}))
            conn.alias("Al", "d2", "d")
            conn.register("Al", "D2", pd.DataFrame({"z": range(4)}))
            conn.register("Al", "d", pd.DataFrame({"y": range(6)}))
            got = PolyFrame("Al", "d2", conn).toPandas()
            assert got.to_dict("list") == {"z": [0, 1, 2, 3]}, conn.language

    def test_alias_of_an_alias_names_the_stored_dataset(self, spark):
        # n3 reads what n2 read when n3 was made: n, not n2's later copy
        for conn in self.connectors(spark):
            conn.register("Root", "n", pd.DataFrame({"x": range(3)}))
            conn.alias("Root", "n2", "n")
            conn.alias("Root", "n3", "n2")
            conn.register("Root", "n2", pd.DataFrame({"x": range(7)}))
            assert len(PolyFrame("Root", "n3", conn)) == 3, conn.language

    def test_a_stored_dataset_made_an_alias_carries_its_aliases(self, spark):
        for conn in self.connectors(spark):
            conn.register("Q", "c", pd.DataFrame({"x": range(3)}))
            conn.alias("Q", "c2", "c")
            conn.register("Q", "y", pd.DataFrame({"x": range(5)}))
            conn.alias("Q", "c", "y")
            for name in ("c", "c2"):
                assert len(PolyFrame("Q", name, conn)) == 5, conn.language
            conn.register("Q", "y", pd.DataFrame({"z": [1, 2]}))
            got = PolyFrame("Q", "c2", conn).toPandas()
            assert got.to_dict("list") == {"z": [1, 2]}, conn.language

    def test_alias_on_a_view_another_dataset_holds_is_refused(self, spark):
        # Q.A_b and Q_A.b both map to the temp view Q_A_b
        for conn in spark_backed(spark):
            conn.register("Q", "n", pd.DataFrame({"x": range(5)}))
            conn.register("Q_A", "b", pd.DataFrame({"x": range(3)}))
            with pytest.raises(ValueError, match="holds view"):
                conn.alias("Q", "A_b", "n")
            assert len(PolyFrame("Q_A", "b", conn)) == 3, conn.language

    def test_spark_alias_carries_no_sql_text(self, spark):
        # a Dataset view: Spark does not parse and analyze it in each query
        from repro.backends.spark import view_name

        catalog = spark._jsparkSession.sessionState().catalog()
        for conn in spark_backed(spark):
            conn.register("Al", "t", pd.DataFrame({"x": range(3)}))
            conn.alias("Al", "t2", "t")
            desc = catalog.getTempView(view_name("Al", "t2")).get().desc()
            assert desc.viewText().isEmpty(), conn.language


class TestSparkInputs:
    def test_register_accepts_spark_dataframe(self, spark, wdata):
        from repro.backends.spark import SparkConnector

        conn = SparkConnector(spark)
        conn.register("S", "w", spark.createDataFrame(wdata.head(25)))
        assert len(PolyFrame("S", "w", conn)) == 25

    def test_view_created_in_spark(self, spark, wdata):
        # a temp view made outside the connector is a dataset too
        spark.createDataFrame(wdata.head(12)).createOrReplaceTempView("V_w")
        for conn in spark_backed(spark):
            assert len(PolyFrame("V", "w", conn)) == 12, conn.language

    def test_replaced_view_is_read_as_it_is_now(self, spark):
        from repro.backends.engines import CypherConnector, MongoConnector, SqlPPConnector
        from repro.backends.spark import SparkConnector

        old = pd.DataFrame({"a": [1, 2, 3], "b": [4, 5, 6]})
        new = pd.DataFrame({"a": [1, 2, 3], "c": [7, 9, 8], "b": [4, 5, 6]})
        for kind in (SparkConnector, SqlPPConnector, MongoConnector, CypherConnector):
            conn = kind(spark)
            conn.register("R", "w", old)
            SparkConnector(spark).register("R", "w", new)
            pf = PolyFrame("R", "w", conn)
            assert list(pf.toPandas().columns) == ["a", "c", "b"], conn.language
            assert pf["c"].max() == new["c"].max(), conn.language

    def test_duckdb_accepts_spark_dataframe(self, spark, wdata):
        from repro.backends.duck import DuckDBConnector

        conn = DuckDBConnector()
        conn.register("S", "w", spark.createDataFrame(wdata.head(25)))
        assert len(PolyFrame("S", "w", conn)) == 25

    @pytest.mark.parametrize("name", ["sparksql", "sqlpp", "mongo", "cypher"])
    def test_pandas_rows_are_not_in_the_plan(self, backends, monkeypatch, name):
        # pandas data is loaded once at registration, so the plan scans the
        # loaded partitions instead of carrying the rows as a LocalRelation
        conn = backends[name]
        sent = []
        spark_df_type = type(conn.spark.range(1))
        to_pandas = spark_df_type.toPandas

        def record(df):
            sent.append(df)
            return to_pandas(df)

        monkeypatch.setattr(spark_df_type, "toPandas", record)
        pf, _ = polyframes(conn)
        pf[pf["ten"] == 3][["unique1"]].head(2)
        plan = sent[-1]._jdf.queryExecution().optimizedPlan().toString()
        assert "LocalRelation" not in plan


class TestUnknownDataset:
    @pytest.mark.parametrize("backend", SPARK_BACKENDS, indirect=True)
    def test_get_columns_raises_dataset_not_registered(self, backend):
        # the typed error of initialize, not the backend's own
        _, conn = backend
        with pytest.raises(DatasetNotRegistered):
            conn.get_columns("Nope", "missing")


class RecordingConnection:
    """A DuckDB connection that records each statement sent through it."""

    def __init__(self):
        self._con = duckdb.connect()
        self.statements: list[str] = []

    def execute(self, query, *args):
        self.statements.append(query)
        return self._con.execute(query, *args)

    def sql(self, query):
        self.statements.append(query)
        return self._con.sql(query)

    def __getattr__(self, name):
        return getattr(self._con, name)


class TestDuckDBRegistry:
    """The connection's registry verifies a known dataset without DuckDB."""

    def test_frame_on_a_held_dataset_sends_no_statement(self, wdata):
        from repro.backends.duck import DuckDBConnector

        con = RecordingConnection()
        conn = DuckDBConnector(con)
        conn.register("H", "w", wdata.head(3))
        conn.alias("H", "w2", "w")
        con.statements.clear()
        PolyFrame("H", "w", conn)
        PolyFrame("h", "W2", conn)
        assert con.statements == []

    def test_connectors_on_one_connection_share_it(self, wdata):
        from repro.backends.duck import DuckDBConnector

        con = RecordingConnection()
        DuckDBConnector(con).register("H", "w", wdata.head(3))
        second = DuckDBConnector(con)
        con.statements.clear()
        assert len(PolyFrame("H", "w", second)) == 3
        assert len(con.statements) == 1  # the action's query, no bind

    def test_view_made_on_the_connection_is_bound_once(self):
        from repro.backends.duck import DuckDBConnector

        con = RecordingConnection()
        con.execute("CREATE SCHEMA V")
        con.execute("CREATE VIEW V.w AS SELECT * FROM range(4) AS r(a)")
        conn = DuckDBConnector(con)
        con.statements.clear()
        PolyFrame("V", "w", conn)
        PolyFrame("V", "w", conn)
        assert con.statements == ['SELECT * FROM "V"."w" LIMIT 0']

    def test_unknown_name_is_bound_each_time(self):
        from repro.backends.duck import DuckDBConnector

        con = RecordingConnection()
        conn = DuckDBConnector(con)
        for _ in range(2):
            with pytest.raises(DatasetNotRegistered):
                PolyFrame("V", "nope", conn)
        assert len(con.statements) == 2


class TestDuckDBInitialize:
    def test_unknown_table_in_existing_schema(self, wdata):
        from repro.backends.duck import DuckDBConnector

        conn = DuckDBConnector()
        conn.register("A", "w", wdata.head(3))
        with pytest.raises(DatasetNotRegistered):
            conn.initialize("A", "nope")

    def test_view_created_on_the_given_connection(self):
        from repro.backends.duck import DuckDBConnector

        con = duckdb.connect()
        con.execute("CREATE SCHEMA V")
        con.execute("CREATE VIEW V.w AS SELECT * FROM range(4) AS r(a)")
        assert len(PolyFrame("V", "w", DuckDBConnector(con))) == 4

    def test_names_with_a_double_quote(self, wdata):
        from repro.backends.duck import DuckDBConnector

        conn = DuckDBConnector()
        conn.register('Q"ns', 'w"x', wdata.head(3))
        conn.initialize('Q"ns', 'w"x')
        with pytest.raises(DatasetNotRegistered):
            conn.initialize('Q"ns', 'w"')

    def test_describe_names_in_another_case(self, wdata):
        # DuckDB binds names without regard to case, and so must the schema
        from repro.backends.duck import DuckDBConnector

        conn = DuckDBConnector()
        data = wdata.head(6)
        conn.register("Bench", "Wisc", data)
        got = PolyFrame("bench", "wisc", conn).describe()
        want = data.select_dtypes("number")
        assert list(got.columns) == list(want.columns)
        stats = [want.count(), want.mean(), want.std(), want.min(), want.max()]
        assert got.to_numpy() == pytest.approx(pd.DataFrame(stats).to_numpy())


class TestLoadPartitions:
    """pandas data is stored in as few partitions as its size needs: one
    per advisory partition size, at most one per core."""

    @pytest.fixture(scope="class")
    def part_conn(self, spark):
        from repro.backends.spark import SparkConnector

        conn = SparkConnector(spark)
        data = wisconsin_pdf(5_000, seed=8)
        conn.register("Part", "wisconsin", data)
        conn.register("Part", "wisconsin2", data.copy())
        return conn

    def test_5000_rows_are_one_partition(self, spark, part_conn):
        assert spark.table("Part_wisconsin").rdd.getNumPartitions() == 1

    def test_table3_plans_have_no_exchange(self, part_conn, monkeypatch):
        sent = []
        spark_df_type = type(part_conn.spark.range(1))
        to_pandas = spark_df_type.toPandas

        def record(df):
            sent.append(df)
            return to_pandas(df)

        monkeypatch.setattr(spark_df_type, "toPandas", record)
        pf = PolyFrame("Part", "wisconsin", part_conn)
        pf2 = PolyFrame("Part", "wisconsin2", part_conn)
        for e in EXPRESSIONS:
            sent.clear()
            e.poly_fn(pf, pf2)
            assert sent, e.name
            for df in sent:
                plan = df._jdf.queryExecution().executedPlan().toString()
                assert "Exchange" not in plan, (e.name, plan)

    @pytest.mark.parametrize("advisory", ["1m", "100k"])
    def test_count_follows_advisory_partition_size(self, spark, advisory):
        from repro.backends.spark import SparkConnector

        key = "spark.sql.adaptive.advisoryPartitionSizeInBytes"
        saved = spark.conf.get(key)
        data = wisconsin_pdf(5_000, seed=8)
        spark.conf.set(key, advisory)
        try:
            SparkConnector(spark).register("Part", "small", data)
        finally:
            spark.conf.set(key, saved)
        target = {"1m": 1 << 20, "100k": 100 << 10}[advisory]
        size = data.memory_usage(deep=True).sum()
        want = min(spark.sparkContext.defaultParallelism, math.ceil(size / target))
        assert spark.table("Part_small").rdd.getNumPartitions() == want


class TestMongoConnectorSpecifics:
    def test_pipeline_wrapped_by_connector(self, backends):
        conn = backends["mongo"]
        prepared = conn.preprocess('{ "$match": {} }', "Bench", "wisconsin")
        assert prepared.startswith("[") and prepared.endswith("]")

    def test_id_never_reaches_user(self, backends):
        pf, _ = polyframes(backends["mongo"])
        assert "_id" not in pf[["two"]].head().columns
        assert "_id" not in pf.toPandas().columns
