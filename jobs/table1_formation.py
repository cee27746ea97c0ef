"""Reproduce paper Table I: incremental query formation, 6 ops × 5 languages.

Usage: spark-submit jobs/table1_formation.py   (no Spark work — prints text)
"""
from __future__ import annotations

from repro.bench.recording import TABLE1_OPS, RecordingConnector, table1


def main(spark=None) -> None:
    print("TABLE I — PolyFrame's Incremental Query Formation")
    for lang in ("sqlpp", "sql", "mongo", "cypher", "sparksql"):
        print(f"\n================ {lang} ================")
        for i, (op, q) in enumerate(zip(TABLE1_OPS, table1(RecordingConnector(lang))), 1):
            print(f"\n[{i}] {op}")
            print("    " + q.replace("\n", "\n    "))


if __name__ == "__main__":
    main()
