"""Smoke tests for the jobs/ entrypoints (the per-table drivers)."""
from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

from repro.bench.expressions import EXPRESSIONS

JOBS = Path(__file__).resolve().parent.parent / "jobs"

#: Spark job -> (lines it prints, tables with one row per expression)
SPARK_JOBS = {
    "table3_expressions": (
        [
            "TABLE III / Fig. 5",
            "== total runtime (creation + expression), Fig. 5a/5b ==",
            "== expression-only runtime, Fig. 5c/5d ==",
            "== DataFrame creation time (one per system) ==",
        ],
        2,
    ),
    "table4_single_node": (
        [
            "TABLE IV / Figs 6-8",
            "== total runtime (creation + expression) ==",
            "== expression-only runtime ==",
        ],
        2,
    ),
    "table5_multinode": (
        [
            "TABLE V / Fig. 9 — SPEEDUP",
            "speedup over 1 node (ideal = node count):",
            "TABLE V / Fig. 10 — SCALEUP",
            "scaleup vs 1 node (ideal = 1.0):",
            # each node count's session runs on a master of its own
            *(
                f"... {sweep} {n} nodes done on local[{n}]"
                for sweep in ("speedup", "scaleup")
                for n in range(1, 5)
            ),
        ],
        4,
    ),
}


def load_job(name: str):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table1_prints_all_languages(capsys):
    load_job("table1_formation").main()
    out = capsys.readouterr().out
    for lang in ("sqlpp", "sql", "mongo", "cypher", "sparksql"):
        assert f"================ {lang} ================" in out
    assert out.count("af['lang'] == 'en'") == 5 * 4  # appears in ops 3–6


def test_table2_validates_all_attributes(capsys):
    load_job("table2_wisconsin").main(n=1_000)  # asserts internally
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count(" OK") == 16


@pytest.mark.parametrize("name", list(SPARK_JOBS))
def test_spark_jobs_importable(name, spark_jobs):
    module = load_job(name)
    assert callable(module.main)
    proc, stem = spark_jobs[name]
    assert proc.wait(timeout=600) == 0, stem.with_suffix(".err").read_text()[-3000:]
    out = stem.with_suffix(".out").read_text()
    headers, tables = SPARK_JOBS[name]
    for header in headers:
        assert header in out
    for e in EXPRESSIONS:
        rows = re.findall(rf"^{e.id}\s+{re.escape(e.name)}\s", out, re.MULTILINE)
        assert len(rows) == tables, (e.id, e.name)
