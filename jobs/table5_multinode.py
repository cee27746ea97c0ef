"""Reproduce paper Table V + Figures 9–10: multi-node speedup and scaleup,
simulated as partition counts inside the local session (DESIGN.md §2).

Speedup: fixed XL data, nodes 1..4 — ideal speedup(n) = n.
Scaleup: data grows with nodes   — ideal scaleup(n) = 1.

Usage: spark-submit jobs/table5_multinode.py [scale]
"""
from __future__ import annotations

import sys

from repro.bench.harness import (
    local_spark,
    make_connector,
    register_dataset,
    rows_to_frame,
    run_polyframe,
    simulated_nodes,
    warmup,
)
from repro.wisconsin.generator import scaled_sizes, wisconsin_pdf

NODES = (1, 2, 3, 4)


def _run(spark, pdf, nodes: int, label: str):
    sdf = spark.createDataFrame(pdf).repartition(nodes).cache()
    sdf.count()
    conn = make_connector("sparksql", spark)
    register_dataset(conn, sdf, sdf)
    warmup(conn)
    with simulated_nodes(spark, nodes):
        rows = run_polyframe(conn, "polyframe-sparksql", label, len(pdf))
    sdf.unpersist()
    return rows


def _print_ratios(rows, title: str) -> None:
    """Print expression-only seconds per node count and their ratio to
    1 node: speedup and scaleup are both t(1 node) / t(n nodes)."""
    pivot = rows_to_frame(rows).pivot_table(
        index=["expr_id", "expr_name"], columns="dataset", values="expression_s"
    )
    pivot = pivot[[f"{n}-nodes" for n in NODES]]
    print("\nexpression-only seconds per simulated node count:")
    print(pivot.round(4).to_string())
    print(f"\n{title}")
    print(pivot.rdiv(pivot["1-nodes"], axis=0).round(2).to_string())


def main(spark, scale: float = 0.2) -> None:
    # Default scale is 0.2 (XL = 1M records, 4-node scaleup = 4M): large
    # enough that per-query work dominates Spark's fixed driver latency,
    # so the speedup/scaleup *shape* is visible (DESIGN.md §2 sub. 2/3).
    xl = scaled_sizes(scale)["XL"]

    print(f"TABLE V / Fig. 9 — SPEEDUP (fixed XL = {xl} records)")
    rows = []
    for n in NODES:
        rows += _run(spark, wisconsin_pdf(xl, seed=42), n, f"{n}-nodes")
        print(f"... speedup {n} nodes done")
    _print_ratios(rows, "speedup over 1 node (ideal = node count):")

    print(f"\nTABLE V / Fig. 10 — SCALEUP (XL per node, {xl} records/node)")
    rows = []
    for n in NODES:
        rows += _run(spark, wisconsin_pdf(xl * n, seed=42), n, f"{n}-nodes")
        print(f"... scaleup {n} nodes done")
    _print_ratios(rows, "scaleup vs 1 node (ideal = 1.0):")


if __name__ == "__main__":
    main(local_spark(), float(sys.argv[1]) if len(sys.argv) > 1 else 0.2)
