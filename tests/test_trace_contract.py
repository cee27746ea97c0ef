"""The calls ``perfbench/tracing.py`` wraps, checked on one traced action per
backend (DESIGN.md §6).

The tracer measures from outside ``src/``: it wraps each connector's
``execute``, ``preprocess``, ``send_query`` and ``postprocess``, the Mongo and
Cypher connectors' ``engine.execute``, ``RewriteRules.apply``, the session's
``sql`` and the ``toPandas`` of each DataFrame those return. A rename, or a
fetch another way, leaves a layer of ``perfbench/run.py``'s ``LAYERS``
unmeasured. The two modules are loaded by path; nothing under ``perfbench/``
is imported as a package.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path
from time import perf_counter

import pandas as pd
import pytest

from repro.bench.harness import BACKENDS, make_connector
from repro.core import PolyFrame

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: job and task counts are read after the round, from Spark's status store
AFTER_ROUND = {"spark.jobs", "spark.tasks"}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced(spark) -> dict:
    """backend -> the metrics of one traced action, run as ``Loop.one`` runs it."""
    tracing = _load("tracing")
    data = pd.DataFrame({"k": [1, 2, 3, 4], "s": ["a", "b", "c", "d"]})
    conns = {}
    for b in BACKENDS:
        conns[b] = make_connector(b, spark)
        conns[b].register("Trace", "d", data)
    tracer = tracing.Tracer(spark)
    tracer.install(conns)
    try:
        for b, conn in conns.items():
            tracer.begin(b)
            t0 = perf_counter()
            pf = PolyFrame("Trace", "d", conn)
            tracer.created(perf_counter() - t0)
            pf[pf["k"] > 1].head(2)
            tracer.end()
    finally:
        tracer.remove()
    return {a.backend: a.t for a in tracer.done}


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_layer_is_measured(traced, backend):
    layers = _load("run").LAYERS
    want = {name for name, _, backends in layers if backend in backends} - AFTER_ROUND
    assert want <= set(traced[backend]), sorted(want - set(traced[backend]))


def test_compilers_are_timed_as_engine_builds(traced):
    # the engines bind spark.sql before the tracer wraps it: their query is
    # timed once, under engine_build_ms
    for backend in ("mongo", "cypher"):
        assert "engine_build_ms" in traced[backend]
        assert "spark.sql_ms" not in traced[backend]
    for backend in ("sparksql", "sqlpp"):
        assert "spark.sql_ms" in traced[backend]


def test_spark_actions_fetch_through_to_pandas(traced):
    # execute_fetch_ms is the wrapped toPandas less Spark's planning; the
    # tracer reads to_pandas_ms as 0 when no wrapped toPandas ran
    for backend in BACKENDS:
        if backend != "sql":
            assert traced[backend]["to_pandas_ms"] > 0
