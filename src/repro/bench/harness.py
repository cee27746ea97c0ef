"""Benchmark harness: the paper's two timing points + sweep drivers.

The DataFrame benchmark (paper §IV-A, Appendix D) reports, per expression,
both the **total runtime** (DataFrame creation + expression) and the
**expression-only runtime**. For Pandas, creation means reading the JSON
file into memory; for PolyFrame it is only forming q1 — no data is loaded,
which is the paper's headline total-runtime contrast.

Multi-node simulation (DESIGN.md §2 substitution 2): a "cluster of N
nodes" is modelled as N input partitions + N shuffle partitions inside the
one local Spark session, holding data fixed (speedup, Table V row 2) or
growing it proportionally (scaleup, Table V row 3).
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

import pandas as pd
from pyspark.sql import SparkSession

from repro.backends.duck import DuckDBConnector
from repro.backends.engines import CypherConnector, MongoConnector, SqlPPConnector
from repro.backends.spark import SparkConnector
from repro.bench.expressions import EXPRESSIONS, BenchExpression
from repro.core import DBConnector, PolyFrame

#: Every PolyFrame backend in this reproduction, keyed by language.
BACKENDS = ("sparksql", "sql", "sqlpp", "mongo", "cypher")

NAMESPACE = "Bench"
COLLECTION = "wisconsin"
COLLECTION2 = "wisconsin2"


def local_spark() -> SparkSession:
    """The Spark session of the tests and the jobs.

    ``SPARK_MASTER`` (default ``local[*]``) and ``SPARK_DRIVER_MEM``
    (default ``8g``) are read only when the JVM starts, so they go into
    ``PYSPARK_SUBMIT_ARGS`` before the first session is built. 16 shuffle
    partitions suit the scaled datasets on a few cores (``perfbench`` uses
    the same). Broadcast joins are off, so joins take the shuffle path that
    the paper's multi-node runs exercise.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName("polyframe-repro")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def make_connector(kind: str, spark: SparkSession) -> DBConnector:
    """Construct one of the five PolyFrame backends."""
    factories: dict[str, Callable[[], DBConnector]] = {
        "sparksql": lambda: SparkConnector(spark),
        "sql": lambda: DuckDBConnector(),
        "sqlpp": lambda: SqlPPConnector(spark),
        "mongo": lambda: MongoConnector(spark),
        "cypher": lambda: CypherConnector(spark),
    }
    try:
        return factories[kind]()
    except KeyError:
        raise ValueError(f"unknown backend {kind!r}; choose from {BACKENDS}") from None


@dataclass
class TimingRow:
    """One (expression, system, dataset) measurement."""

    expr_id: int
    expr_name: str
    system: str
    dataset: str
    n_records: int
    creation_s: float
    expression_s: float

    @property
    def total_s(self) -> float:
        return self.creation_s + self.expression_s


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock over ``repeats`` runs — the paper reports single
    runs on dedicated EC2 nodes; best-of-N filters this shared container's
    scheduling noise out of ~100 ms queries."""
    return min(timed(fn)[0] for _ in range(max(1, repeats)))


def run_pandas(
    json_path: str | Path,
    dataset: str,
    n_records: int,
    expressions: Iterable[BenchExpression] = EXPRESSIONS,
    repeats: int = 1,
) -> list[TimingRow]:
    """Pandas baseline: creation = pd.read_json (paper Appendix D)."""
    creation_s, df = timed(lambda: pd.read_json(json_path, orient="records", lines=True))
    df2 = df  # expression 12 joins "two identical datasets"
    rows = []
    for e in expressions:
        expr_s = _best_of(lambda: e.pandas_fn(df, df2), repeats)
        rows.append(
            TimingRow(e.id, e.name, "pandas", dataset, n_records, creation_s, expr_s)
        )
    return rows


def run_polyframe(
    connector: DBConnector,
    system: str,
    dataset: str,
    n_records: int,
    expressions: Iterable[BenchExpression] = EXPRESSIONS,
    repeats: int = 1,
) -> list[TimingRow]:
    """PolyFrame on one backend: creation = frame construction (q1 only)."""
    creation_s, pf = timed(lambda: PolyFrame(NAMESPACE, COLLECTION, connector))
    pf2 = PolyFrame(NAMESPACE, COLLECTION2, connector)
    rows = []
    for e in expressions:
        expr_s = _best_of(lambda: e.poly_fn(pf, pf2), repeats)
        rows.append(
            TimingRow(e.id, e.name, system, dataset, n_records, creation_s, expr_s)
        )
    return rows


def register_dataset(connector: DBConnector, data, data2) -> None:
    """Register the benchmark's two identical Wisconsin datasets."""
    connector.register(NAMESPACE, COLLECTION, data)
    connector.register(NAMESPACE, COLLECTION2, data2)


def warmup(connector: DBConnector) -> None:
    """One untimed throwaway action, absorbing first-query JVM/codegen
    initialization so timed runs measure steady-state query latency (the
    paper's servers are long-running and warm)."""
    PolyFrame(NAMESPACE, COLLECTION, connector).head(1)


@contextmanager
def simulated_nodes(spark: SparkSession, nodes: int):
    """Pin shuffle parallelism to the simulated node count."""
    saved = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(nodes))
    try:
        yield
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", saved)


def rows_to_frame(rows: list[TimingRow]) -> pd.DataFrame:
    out = pd.DataFrame([asdict(r) for r in rows])
    out["total_s"] = out["creation_s"] + out["expression_s"]
    return out


def format_table(rows: list[TimingRow], value: str = "total_s") -> str:
    """Pivot to the paper's presentation: expressions × systems."""
    frame = rows_to_frame(rows)
    pivot = frame.pivot_table(
        index=["expr_id", "expr_name"],
        columns=["system", "dataset"],
        values=value,
        aggfunc="min",
    ).round(4)
    return pivot.to_string()
