"""The benchmark's workloads: which actions run, and how each result is checked.

An :class:`Action` is the paper's total-runtime unit for PolyFrame: ``create``
builds the frame(s) (``connector.initialize`` + q1) and ``apply`` runs the
expression through to its result. ``check`` compares a result with a
reference computed once, before timing starts, from the same generated data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import duckdb
import pandas as pd

from repro.bench.expressions import BY_ID, EXPRESSIONS, X, BenchExpression
from repro.bench.harness import COLLECTION, COLLECTION2, NAMESPACE
from repro.core import PolyFrame


@dataclass(frozen=True)
class Action:
    name: str
    create: Callable[[object], tuple]
    apply: Callable[[tuple], object]
    check: Callable[[object], bool]  # result -> correct


@dataclass(frozen=True)
class Workload:
    rows: int
    actions: Callable[[pd.DataFrame], list[Action]]
    #: Time of one warm round, probes included, on a quiet 4-core host. A run
    #: measures ``--seconds / round_s`` rounds, a number fixed by the
    #: arguments alone.
    round_s: float


# -- comparing results -------------------------------------------------------
def _canon(frame: pd.DataFrame) -> pd.DataFrame:
    frame = frame[sorted(frame.columns)].reset_index(drop=True)
    for c in frame.select_dtypes(include="float").columns:
        frame[c] = frame[c].round(6)
    return frame.sort_values(list(frame.columns)).reset_index(drop=True)


def same_frame(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    """Equal as relations: same columns and rows, in any order."""
    if set(got.columns) != set(want.columns) or len(got) != len(want):
        return False
    try:
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
    except AssertionError:
        return False
    return True


def _rows(frame: pd.DataFrame) -> set[tuple]:
    cells = frame.astype(object).where(frame.notna(), None)
    return set(map(tuple, cells.values.tolist()))


def is_sample(got, pool: pd.DataFrame, n: int) -> bool:
    """A LIMIT-without-ORDER-BY result: ``min(n, len(pool))`` rows of ``pool``.

    A one-column result is matched by position, since a computed column's
    name differs between backends; wider results are matched by name.
    """
    if not isinstance(got, pd.DataFrame) or len(got) != min(n, len(pool)):
        return False
    if got.shape[1] == 1 and pool.shape[1] == 1:
        return _rows(got) <= _rows(pool)
    if set(got.columns) != set(pool.columns):
        return False
    cols = sorted(pool.columns)
    return _rows(got[cols]) <= _rows(pool[cols])


# -- Table III expressions ---------------------------------------------------
#: The rows a LIMIT-without-ORDER-BY expression may return any 5 of
#: (the rule tests/test_expressions_correctness.py applies).
SAMPLE_POOLS = {
    2: lambda df: df[["two", "four"]],
    5: lambda df: df["stringu1"].map(str.upper).to_frame(),
    10: lambda df: df[df["ten"] == X],
}
#: Expression 12 joins the dataset with its identical copy (Table III).
JOIN_IDS = {12}


def _frames(needs_second: bool):
    def create(conn):
        pf = PolyFrame(NAMESPACE, COLLECTION, conn)
        return (pf, PolyFrame(NAMESPACE, COLLECTION2, conn) if needs_second else pf)

    return create


def _pandas_agrees(got: pd.DataFrame, want) -> bool:
    """The pandas form of a Table III frame expression is shaped differently
    (group keys in the index, one count per column), so compare the row
    count and every column both forms share."""
    if isinstance(want, pd.Series):
        want = want.to_frame()
    if want.index.name is not None:
        want = want.reset_index()
    shared = [c for c in got.columns if c in want.columns]
    return bool(shared) and same_frame(got[shared], want[shared])


def _expression_check(e: BenchExpression, data: pd.DataFrame, oracle) -> Callable:
    if e.kind == "sample":
        pool = SAMPLE_POOLS[e.id](data)
        return lambda got: is_sample(got, pool, 5)
    want_pandas = e.pandas_fn(data, data)
    want_sql = oracle.execute(e.oracle_sql).fetchdf() if e.oracle_sql else None
    if e.kind == "scalar":
        want_sql = None if want_sql is None else want_sql.iloc[0, 0]
        return lambda got: got == want_pandas and (want_sql is None or got == want_sql)
    return lambda got: (
        isinstance(got, pd.DataFrame)
        and _pandas_agrees(got, want_pandas)
        and (want_sql is None or same_frame(got, want_sql))
    )


def expression_actions(data: pd.DataFrame, ids) -> list[Action]:
    oracle = duckdb.connect()
    try:
        oracle.register("data", data)
        oracle.register("data2", data)
        return [
            Action(
                f"e{e.id}",
                _frames(e.id in JOIN_IDS),
                lambda frames, e=e: e.poly_fn(*frames),
                _expression_check(e, data, oracle),
            )
            for e in (BY_ID[i] for i in ids)
        ]
    finally:
        oracle.close()


def fetch_action(name: str, transform: Callable, data: pd.DataFrame) -> Action:
    """Bulk fetch: ``transform(frame).toPandas()``, checked row for row."""
    want = transform(data)
    return Action(
        name,
        _frames(False),
        lambda frames: transform(frames[0]).toPandas(),
        lambda got: isinstance(got, pd.DataFrame) and same_frame(got, want),
    )


def table3(data: pd.DataFrame) -> list[Action]:
    return expression_actions(data, [e.id for e in EXPRESSIONS])


#: Expressions of the XL workload whose cost grows with the data: a
#: group-by shuffle, a top-5 sort over every row and the join.
XL_IDS = (4, 9, 12)


def scan_fetch(data: pd.DataFrame) -> list[Action]:
    return expression_actions(data, XL_IDS) + [
        fetch_action("fetch_ten", lambda f: f[f["ten"] == X], data),
        fetch_action("fetch_columns", lambda f: f[["unique1", "stringu1", "tenPercent"]], data),
    ]


WORKLOADS = {
    "xs_table3": Workload(5_000, table3, round_s=5.5),
    "xl_scan_fetch": Workload(25_000, scan_fetch, round_s=5.5),
}
