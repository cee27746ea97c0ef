"""The DataFrame benchmark's 13 analytical expressions (paper Table III).

Each :class:`BenchExpression` is written once:

* ``pandas_fn`` — the literal Table III pandas expression. It runs
  unchanged on two pandas frames (the baseline) and on two PolyFrames;
  ``poly_fn`` runs it to a result, materializing a lazy PolyFrame or
  column;
* ``oracle_sql`` — DuckDB SQL over tables ``data``/``data2`` computing the
  same result, used by the correctness tests via ``repro.oracle``.

``kind`` states how results can be compared across systems:
``scalar`` (a number), ``frame`` (a deterministic relation), or
``sample`` (a LIMIT-without-ORDER BY result — any 5 qualifying rows are
correct, so tests check shape + membership instead of equality).

The paper's ``x, y, z`` are "random values within an attribute's range";
we fix a *consistent* triple (x=7 → y = 7 mod 5 = 2, z = 7 mod 2 = 1) so
expression 3 selects the intended ~10% instead of the empty set the
Wisconsin modulus correlations would otherwise produce.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pandas as pd

from repro.core.aframe import PolyFrame, PolyFrameColumn

#: Fixed benchmark parameters (see module docstring).
X, Y, Z = 7, 2, 1
LO, HI = 10, 30

#: the two datasets an expression reads: pandas frames or PolyFrames
Frame = pd.DataFrame | PolyFrame


@dataclass(frozen=True)
class BenchExpression:
    """One Table III benchmark expression and its oracle SQL."""

    id: int
    name: str
    kind: str  # 'scalar' | 'frame' | 'sample'
    pandas_fn: Callable[[Frame, Frame], object]
    oracle_sql: str | None = None

    def poly_fn(self, df: Frame, df2: Frame) -> object:
        """``pandas_fn`` run to its result: a lazy PolyFrame or column it
        returns is materialized with ``toPandas()``, any other result is
        returned as it is, so this runs on pandas frames too."""
        result = self.pandas_fn(df, df2)
        return result.toPandas() if isinstance(result, (PolyFrame, PolyFrameColumn)) else result


EXPRESSIONS: list[BenchExpression] = [
    BenchExpression(
        1,
        "Total Count",
        "scalar",
        lambda df, df2: len(df),
        'SELECT COUNT(*) AS v FROM data',
    ),
    BenchExpression(
        2,
        "Project",
        "sample",
        lambda df, df2: df[["two", "four"]].head(),
    ),
    BenchExpression(
        3,
        "Filter & Count",
        "scalar",
        lambda df, df2: len(
            df[(df["ten"] == X) & (df["twentyPercent"] == Y) & (df["two"] == Z)]
        ),
        f'SELECT COUNT(*) AS v FROM data WHERE "ten" = {X} '
        f'AND "twentyPercent" = {Y} AND "two" = {Z}',
    ),
    BenchExpression(
        4,
        "Group By",
        "frame",
        lambda df, df2: df.groupby("oddOnePercent").agg("count"),
        'SELECT "oddOnePercent", COUNT("oddOnePercent") AS "count_oddOnePercent" '
        "FROM data GROUP BY 1",
    ),
    BenchExpression(
        5,
        "Map Function",
        "sample",
        lambda df, df2: df["stringu1"].map(str.upper).head(),
    ),
    BenchExpression(
        6,
        "Max",
        "scalar",
        lambda df, df2: df["unique1"].max(),
        'SELECT MAX("unique1") AS v FROM data',
    ),
    BenchExpression(
        7,
        "Min",
        "scalar",
        lambda df, df2: df["unique1"].min(),
        'SELECT MIN("unique1") AS v FROM data',
    ),
    BenchExpression(
        8,
        "Group By & Max",
        "frame",
        lambda df, df2: df.groupby("twenty")["four"].agg("max"),
        'SELECT "twenty", MAX("four") AS "max_four" FROM data GROUP BY 1',
    ),
    BenchExpression(
        9,
        "Sort",
        "frame",
        lambda df, df2: df.sort_values("unique1", ascending=False).head(),
        'SELECT * FROM data ORDER BY "unique1" DESC LIMIT 5',
    ),
    BenchExpression(
        10,
        "Selection",
        "sample",
        lambda df, df2: df[df["ten"] == X].head(),
    ),
    BenchExpression(
        11,
        "Range Selection",
        "scalar",
        lambda df, df2: len(df[(df["onePercent"] >= LO) & (df["onePercent"] <= HI)]),
        f'SELECT COUNT(*) AS v FROM data WHERE "onePercent" >= {LO} '
        f'AND "onePercent" <= {HI}',
    ),
    BenchExpression(
        12,
        "Join & Count",
        "scalar",
        lambda df, df2: len(df.merge(df2, left_on="unique1", right_on="unique1")),
        'SELECT COUNT(*) AS v FROM data l JOIN data2 r ON l."unique1" = r."unique1"',
    ),
    BenchExpression(
        13,
        "Count Missing Value",
        "scalar",
        lambda df, df2: len(df[df["tenPercent"].isna()]),
        'SELECT COUNT(*) AS v FROM data WHERE "tenPercent" IS NULL',
    ),
]

BY_ID: dict[int, BenchExpression] = {e.id: e for e in EXPRESSIONS}
