"""Reproduce paper Table IV + Figures 6–8: single-node scalability sweep
over the five dataset sizes (XS–XL at 1/100 of the paper's record counts)
for Pandas and PolyFrame on Spark and DuckDB(=PostgreSQL stand-in).

Usage: spark-submit jobs/table4_single_node.py [scale]
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.bench.expressions import EXPRESSIONS
from repro.bench.harness import (
    format_table,
    local_spark,
    make_connector,
    register_dataset,
    run_pandas,
    warmup,
    run_polyframe,
)
from repro.wisconsin.generator import scaled_sizes, wisconsin_pdf

SYSTEMS = ("sparksql", "sql")


def main(spark, scale: float = 0.01) -> None:
    sizes = scaled_sizes(scale)
    rows = []
    for name, n in sizes.items():
        pdf = wisconsin_pdf(n, seed=42)
        with tempfile.TemporaryDirectory() as tmp:
            json_path = Path(tmp) / "w.json"
            pdf.to_json(json_path, orient="records", lines=True)
            rows += run_pandas(json_path, name, n, EXPRESSIONS, repeats=3)
        for kind in SYSTEMS:
            conn = make_connector(kind, spark)
            register_dataset(conn, pdf, pdf)
            warmup(conn)
            rows += run_polyframe(conn, f"polyframe-{kind}", name, n, EXPRESSIONS, repeats=3)
        print(f"... {name} ({n} records) done")

    print(f"\nTABLE IV / Figs 6-8 — sizes {sizes} (scale={scale})")
    print("\n== total runtime (creation + expression) ==")
    print(format_table(rows, "total_s"))
    print("\n== expression-only runtime ==")
    print(format_table(rows, "expression_s"))


if __name__ == "__main__":
    main(local_spark(), float(sys.argv[1]) if len(sys.argv) > 1 else 0.01)
