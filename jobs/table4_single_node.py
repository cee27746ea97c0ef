"""Reproduce paper Table IV + Figures 6–8: single-node scalability sweep
over the five dataset sizes (XS–XL at 1/100 of the paper's record counts)
for Pandas and PolyFrame on Spark and DuckDB(=PostgreSQL stand-in).

Usage: spark-submit jobs/table4_single_node.py [scale]
"""
from __future__ import annotations

import sys

from repro.bench.harness import format_table, local_spark, run_sweep
from repro.wisconsin.generator import scaled_sizes, wisconsin_pdf

SYSTEMS = ("sparksql", "sql")


def main(spark, scale: float = 0.01) -> None:
    sizes = scaled_sizes(scale)
    rows = []
    for name, n in sizes.items():
        rows += run_sweep(spark, wisconsin_pdf(n, seed=42), name, SYSTEMS)
        print(f"... {name} ({n} records) done")

    print(f"\nTABLE IV / Figs 6-8 — sizes {sizes} (scale={scale})")
    print("\n== total runtime (creation + expression) ==")
    print(format_table(rows, "total_s"))
    print("\n== expression-only runtime ==")
    print(format_table(rows, "expression_s"))


if __name__ == "__main__":
    main(local_spark(), float(sys.argv[1]) if len(sys.argv) > 1 else 0.01)
