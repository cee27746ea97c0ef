"""Reproduce paper Table V + Figures 9–10: multi-node speedup and scaleup,
a node being one core of a ``local[n]`` Spark session (DESIGN.md §2).

Speedup: fixed XL data, nodes 1..4 — ideal speedup(n) = n.
Scaleup: data grows with nodes   — ideal scaleup(n) = 1.

Usage: spark-submit jobs/table5_multinode.py [scale]
"""
from __future__ import annotations

import os
import sys

from repro.bench.harness import (
    local_spark,
    make_connector,
    register_dataset,
    rows_to_frame,
    run_polyframe,
    warmup,
)
from repro.wisconsin.generator import scaled_sizes, wisconsin_pdf

NODES = (1, 2, 3, 4)


def _run(pdf, nodes: int, sweep: str):
    """The expressions on ``pdf`` in a session of its own on ``local[nodes]``."""
    os.environ["SPARK_MASTER"] = f"local[{nodes}]"
    spark = local_spark()
    try:
        conn = make_connector("sparksql", spark)
        register_dataset(conn, pdf, pdf)
        warmup(conn)
        rows = run_polyframe(conn, "polyframe-sparksql", f"{nodes}-nodes", len(pdf))
        print(f"... {sweep} {nodes} nodes done on {spark.sparkContext.master}")
    finally:
        spark.stop()
    return rows


def _print_ratios(rows, title: str) -> None:
    """Print expression-only seconds per node count and their ratio to
    1 node: speedup and scaleup are both t(1 node) / t(n nodes)."""
    pivot = rows_to_frame(rows).pivot_table(
        index=["expr_id", "expr_name"], columns="dataset", values="expression_s"
    )
    pivot = pivot[[f"{n}-nodes" for n in NODES]]
    print("\nexpression-only seconds per node count:")
    print(pivot.round(4).to_string())
    print(f"\n{title}")
    print(pivot.rdiv(pivot["1-nodes"], axis=0).round(2).to_string())


def main(scale: float = 0.2) -> None:
    # Default scale is 0.2 (XL = 1M records, 4-node scaleup = 4M): large
    # enough that per-query work dominates Spark's fixed driver latency,
    # so the speedup/scaleup *shape* is visible (DESIGN.md §2 sub. 2/3).
    xl = scaled_sizes(scale)["XL"]

    print(f"TABLE V / Fig. 9 — SPEEDUP (fixed XL = {xl} records)")
    rows = []
    for n in NODES:
        rows += _run(wisconsin_pdf(xl, seed=42), n, "speedup")
    _print_ratios(rows, "speedup over 1 node (ideal = node count):")

    print(f"\nTABLE V / Fig. 10 — SCALEUP (XL per node, {xl} records/node)")
    rows = []
    for n in NODES:
        rows += _run(wisconsin_pdf(xl * n, seed=42), n, "scaleup")
    _print_ratios(rows, "scaleup vs 1 node (ideal = 1.0):")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.2)
