"""The query dump against its golden file: every text PolyFrame forms, and
the Spark SQL the SQL++ transpiler and the Mongo and Cypher compilers make of
it, byte for byte.

``tests/query_dump.txt`` is the output of ``python -m tests.query_dump``. A
change that means to alter a formed or compiled text writes the file again
with that command, and the diff shows what it changed.
"""
from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from tests.query_dump import dump

GOLDEN = Path(__file__).resolve().parent / "query_dump.txt"


def test_query_dump_matches_golden_file(spark):
    # a session of its own: the dump's Bench and Test views replace no other test's
    got, want = dump(spark.newSession()), GOLDEN.read_text()
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            "tests/query_dump.txt", "dump()",
        )
        pytest.fail("the query dump differs from its golden file:\n" + "".join(diff))
