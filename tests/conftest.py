"""Shared fixtures: Wisconsin test data, the five backends, oracle helpers.

Test data is SF-tiny (2 000 records ≈ 1/1000 of the paper's XS dataset,
DESIGN.md §2 substitution 3) and deterministic, so the DuckDB oracle, the
pandas baseline and every PolyFrame backend all see identical rows.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import duckdb
import pandas as pd
import pytest
from pyspark.sql import SparkSession

from repro import oracle
from repro.bench.harness import (
    BACKENDS,
    COLLECTION,
    COLLECTION2,
    NAMESPACE,
    local_spark,
    make_connector,
    register_dataset,
)
from repro.core import PolyFrame
from repro.wisconsin.generator import wisconsin_pdf

ROOT = Path(__file__).resolve().parent.parent
N_TEST = 2_000
SEED = 42


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local Spark session for the whole test session."""
    s = local_spark()
    yield s
    s.stop()


@pytest.fixture(scope="session", autouse=True)
def spark_jobs(request, tmp_path_factory):
    """The Spark job scripts that ``test_spark_jobs_importable`` checks,
    started at XL = 100 records when the session starts, so they run beside
    the in-process tests: name -> (process, output path stem).

    Each job runs in its own process: it registers ``Bench.wisconsin`` in
    its session, which would replace the views of the ``backends`` fixture.
    """
    names = [
        item.callspec.params["name"]
        for item in request.session.items
        if getattr(item, "originalname", "") == "test_spark_jobs_importable"
    ]
    cwd = tmp_path_factory.mktemp("jobs")
    env = {k: v for k, v in os.environ.items() if k != "PYSPARK_SUBMIT_ARGS"}
    path = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, path)),
        # the jobs share the cores with the tests; Table V sets one per node count
        SPARK_MASTER="local[2]",
        SPARK_DRIVER_MEM="1g",
    )
    runs = {}
    for name in names:
        stem = cwd / name
        cmd = [sys.executable, str(ROOT / "jobs" / f"{name}.py"), "2e-5"]
        with open(f"{stem}.out", "w") as out, open(f"{stem}.err", "w") as err:
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        runs[name] = proc, stem
    yield runs
    for proc, _ in runs.values():
        proc.kill()
        proc.wait()


@pytest.fixture(scope="session")
def wdata() -> pd.DataFrame:
    return wisconsin_pdf(N_TEST, seed=SEED)


@pytest.fixture(scope="session")
def wdata2(wdata) -> pd.DataFrame:
    # "a join of two identical datasets" (paper expression 12)
    return wdata.copy()


@pytest.fixture(scope="session")
def backends(spark, wdata, wdata2) -> dict:
    """All five PolyFrame backends with the Wisconsin datasets registered."""
    conns = {}
    for kind in BACKENDS:
        conn = make_connector(kind, spark)
        register_dataset(conn, wdata, wdata2)
        conns[kind] = conn
    return conns


@pytest.fixture(params=BACKENDS)
def backend(request, backends):
    """Parametrize a test over every backend: yields (name, connector)."""
    return request.param, backends[request.param]


def polyframes(connector) -> tuple[PolyFrame, PolyFrame]:
    """The benchmark's two identical Wisconsin frames on one backend."""
    return (
        PolyFrame(NAMESPACE, COLLECTION, connector),
        PolyFrame(NAMESPACE, COLLECTION2, connector),
    )


def check_frame(result: pd.DataFrame, sql: str, **tables) -> None:
    """Oracle-check a pandas result PolyFrame returned."""
    assert len(result) > 0, "refusing to oracle-check an empty result"
    oracle.assert_equivalent(result, sql, **tables)


def duck_scalar(sql: str, **tables):
    """Evaluate a scalar oracle query directly in DuckDB."""
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql).fetchone()[0]
    finally:
        con.close()
