"""Table III registry + timing-harness tests.

The registry is the single source of truth that tests, jobs and
``perfbench`` share. Each expression is one pandas expression, which runs
unchanged on pandas frames and on PolyFrames, plus its oracle SQL; the two
must agree with each other and with the paper's Table III inventory.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.bench.expressions import BY_ID, EXPRESSIONS, X, Y, Z
from repro.bench.harness import (
    BACKENDS,
    TimingRow,
    format_table,
    make_connector,
    rows_to_frame,
    timed,
)
from tests.conftest import duck_scalar


class TestRegistry:
    def test_thirteen_expressions(self):
        assert [e.id for e in EXPRESSIONS] == list(range(1, 14))

    def test_paper_names(self):
        # Table III operation column
        assert BY_ID[1].name == "Total Count"
        assert BY_ID[5].name == "Map Function"
        assert BY_ID[12].name == "Join & Count"
        assert BY_ID[13].name == "Count Missing Value"

    def test_kinds_partition(self):
        kinds = {e.kind for e in EXPRESSIONS}
        assert kinds == {"scalar", "frame", "sample"}
        assert [e.id for e in EXPRESSIONS if e.kind == "sample"] == [2, 5, 10]

    def test_every_deterministic_expression_has_oracle(self):
        for e in EXPRESSIONS:
            if e.kind in ("scalar", "frame"):
                assert e.oracle_sql, f"expr {e.id} lacks oracle SQL"

    def test_filter_parameters_are_consistent(self):
        # x=7 -> y=x mod 5, z=x mod 2: expression 3 must be non-empty
        assert Y == X % 5 and Z == X % 2

    def test_pandas_forms_agree_with_oracle(self, wdata, wdata2):
        """The pandas form and the DuckDB oracle of every scalar expression
        must agree — they are independent encodings of Table III."""
        for e in EXPRESSIONS:
            if e.kind != "scalar":
                continue
            got = e.pandas_fn(wdata, wdata2)
            want = duck_scalar(e.oracle_sql, data=wdata, data2=wdata2)
            assert got == want, f"expr {e.id}"

    def test_expr3_selects_ten_percent(self, wdata):
        frac = BY_ID[3].pandas_fn(wdata, wdata) / len(wdata)
        assert 0.05 < frac < 0.15


class TestHarness:
    def test_timed_returns_duration_and_result(self):
        secs, out = timed(lambda: 41 + 1)
        assert out == 42 and secs >= 0

    def test_timing_row_total(self):
        row = TimingRow(1, "x", "s", "XS", 10, creation_s=1.0, expression_s=0.5)
        assert row.total_s == 1.5

    def test_rows_to_frame(self):
        rows = [
            TimingRow(1, "a", "pandas", "XS", 10, 1.0, 0.5),
            TimingRow(1, "a", "spark", "XS", 10, 0.0, 0.2),
        ]
        frame = rows_to_frame(rows)
        assert set(frame["system"]) == {"pandas", "spark"}
        assert frame["total_s"].tolist() == [1.5, 0.2]

    def test_format_table_pivots_by_system(self):
        rows = [
            TimingRow(1, "a", "pandas", "XS", 10, 1.0, 0.5),
            TimingRow(1, "a", "spark", "XS", 10, 0.0, 0.2),
        ]
        text = format_table(rows)
        assert "pandas" in text and "spark" in text

    def test_make_connector_unknown_kind(self, spark):
        with pytest.raises(ValueError, match="unknown backend"):
            make_connector("oracle9i", spark)

    def test_backends_tuple_covers_all_languages(self):
        assert set(BACKENDS) == {"sparksql", "sql", "sqlpp", "mongo", "cypher"}


class TestPandasBaselineForms:
    """The pandas lambdas are the paper's literal Table III expressions."""

    def test_expr1_is_len(self, wdata):
        assert BY_ID[1].pandas_fn(wdata, wdata) == len(wdata)

    def test_expr2_shape(self, wdata):
        out = BY_ID[2].pandas_fn(wdata, wdata)
        assert list(out.columns) == ["two", "four"] and len(out) == 5

    def test_expr5_upper(self, wdata):
        out = BY_ID[5].pandas_fn(wdata, wdata)
        assert out.str.isupper().all()

    def test_expr9_descending(self, wdata):
        out = BY_ID[9].pandas_fn(wdata, wdata)
        assert out["unique1"].is_monotonic_decreasing

    def test_expr12_self_join_cardinality(self, wdata, wdata2):
        assert BY_ID[12].pandas_fn(wdata, wdata2) == len(wdata)

    def test_expr13_counts_injected_missing(self, wdata):
        assert BY_ID[13].pandas_fn(wdata, wdata) == wdata["tenPercent"].isna().sum()
