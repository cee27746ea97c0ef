"""Reproduce paper Table III + Figure 5: the 13 benchmark expressions on
the XS dataset, all six systems, with the paper's two timing points
(total = creation + expression, and expression-only).

Usage: spark-submit jobs/table3_expressions.py [scale]
       (scale defaults to 0.01 → XS = 5 000 records)
"""
from __future__ import annotations

import sys

from repro.bench.harness import BACKENDS, format_table, local_spark, run_sweep
from repro.wisconsin.generator import scaled_sizes, wisconsin_pdf


def main(spark, scale: float = 0.01) -> None:
    n = scaled_sizes(scale)["XS"]
    rows = run_sweep(spark, wisconsin_pdf(n, seed=42), "XS", BACKENDS)

    print(f"TABLE III / Fig. 5 — XS dataset ({n} records), times in seconds")
    print("\n== total runtime (creation + expression), Fig. 5a/5b ==")
    print(format_table(rows, "total_s"))
    print("\n== expression-only runtime, Fig. 5c/5d ==")
    print(format_table(rows, "expression_s"))
    print("\n== DataFrame creation time (one per system) ==")
    seen = {}
    for r in rows:
        seen.setdefault(r.system, r.creation_s)
    for system, creation in seen.items():
        print(f"  {system:<22} {creation:.4f}s")


if __name__ == "__main__":
    main(local_spark(), float(sys.argv[1]) if len(sys.argv) > 1 else 0.01)
