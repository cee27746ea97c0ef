"""DuckDB correctness oracle.

``assert_equivalent(got, sql, **tables)`` runs ``sql`` in DuckDB over the
pandas frames ``tables`` and asserts that its sorted rows match ``got``,
the pandas result of a PolyFrame action. This catches wrong results from
a rewritten plan or a custom operator — "it ran" is not "it is correct".

Alias every output column identically on both sides (Spark names
``count(*)`` as ``count(1)``, DuckDB as ``count_star()``) and project to
scalar columns — array/map/struct columns are not orderable so cannot be
compared here.
"""
import duckdb
import pandas as pd


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(got: pd.DataFrame, sql: str, **tables: pd.DataFrame) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )
