"""Benchmark harness: the paper's two timing points + sweep drivers.

The DataFrame benchmark (paper §IV-A, Appendix D) reports, per expression,
both the **total runtime** (DataFrame creation + expression) and the
**expression-only runtime**. For Pandas, creation means reading the JSON
file into memory; for PolyFrame it is only forming q1 — no data is loaded,
which is the paper's headline total-runtime contrast.
"""
from __future__ import annotations

import os
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import pandas as pd
from pyspark.sql import SparkSession

from repro.backends.duck import DuckDBConnector
from repro.backends.engines import CypherConnector, MongoConnector, SqlPPConnector
from repro.backends.spark import SparkConnector
from repro.bench.expressions import EXPRESSIONS
from repro.core import DBConnector, PolyFrame

#: Every PolyFrame backend in this reproduction, keyed by language.
BACKENDS = ("sparksql", "sql", "sqlpp", "mongo", "cypher")

NAMESPACE = "Bench"
COLLECTION = "wisconsin"
COLLECTION2 = "wisconsin2"

#: Each expression's time is the best of this many runs — the paper reports
#: single runs on dedicated EC2 nodes; best-of-N filters a shared machine's
#: scheduling noise out of ~100 ms queries.
REPEATS = 3


def local_spark() -> SparkSession:
    """The Spark session of the tests and the jobs.

    ``SPARK_MASTER`` (default ``local[*]``) is read each time a session is
    built, so a process that stops its session can build the next on
    another master. ``SPARK_DRIVER_MEM`` (default ``8g``) is read only when
    the JVM starts, so it goes into ``PYSPARK_SUBMIT_ARGS`` before the
    first session is built. 16 shuffle partitions suit the scaled datasets
    on a few cores (``perfbench`` uses the same). Broadcast joins are off,
    so joins take the shuffle path that the paper's multi-node runs
    exercise.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName("polyframe-repro")
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def make_connector(kind: str, spark: SparkSession) -> DBConnector:
    """Construct one of the five PolyFrame backends."""
    connectors: dict[str, Callable[[SparkSession], DBConnector]] = {
        "sparksql": SparkConnector,
        "sql": lambda spark: DuckDBConnector(),
        "sqlpp": SqlPPConnector,
        "mongo": MongoConnector,
        "cypher": CypherConnector,
    }
    if kind not in connectors:
        raise ValueError(f"unknown backend {kind!r}; choose from {BACKENDS}")
    return connectors[kind](spark)


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


def _time_expressions(
    frames: tuple, system: str, dataset: str, n_records: int, creation_s: float
) -> list[TimingRow]:
    """Each expression's best time over :data:`REPEATS` runs on ``frames``."""
    return [
        TimingRow(
            e.id, e.name, system, dataset, n_records, creation_s,
            min(timed(lambda: e.poly_fn(*frames))[0] for _ in range(REPEATS)),
        )
        for e in EXPRESSIONS
    ]


def run_pandas(json_path: str | Path, dataset: str, n_records: int) -> list[TimingRow]:
    """Pandas baseline: creation = pd.read_json (paper Appendix D)."""
    creation_s, df = timed(lambda: pd.read_json(json_path, orient="records", lines=True))
    # expression 12 joins "two identical datasets"
    return _time_expressions((df, df), "pandas", dataset, n_records, creation_s)


def run_polyframe(
    connector: DBConnector, system: str, dataset: str, n_records: int
) -> list[TimingRow]:
    """PolyFrame on one backend: creation = frame construction (q1 only)."""
    creation_s, pf = timed(lambda: PolyFrame(NAMESPACE, COLLECTION, connector))
    pf2 = PolyFrame(NAMESPACE, COLLECTION2, connector)
    return _time_expressions((pf, pf2), system, dataset, n_records, creation_s)


def run_sweep(
    spark: SparkSession, pdf: pd.DataFrame, dataset: str, systems: tuple[str, ...]
) -> list[TimingRow]:
    """The expressions on ``pdf``, by pandas from a JSON file of it and by
    PolyFrame on each backend of ``systems`` (Tables III and IV)."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "wisconsin.json"
        pdf.to_json(json_path, orient="records", lines=True)
        rows = run_pandas(json_path, dataset, len(pdf))
    for kind in systems:
        conn = make_connector(kind, spark)
        register_dataset(conn, pdf, pdf)
        warmup(conn)
        rows += run_polyframe(conn, f"polyframe-{kind}", dataset, len(pdf))
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


def rows_to_frame(rows: list[TimingRow]) -> pd.DataFrame:
    return pd.DataFrame([{**asdict(r), "total_s": r.total_s} for r in rows])


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
