"""The query dump against its golden file: every text PolyFrame forms, and
the Spark SQL the SQL++ transpiler and the Mongo and Cypher compilers make of
it, byte for byte.

``tests/query_dump.txt`` is the output of ``python -m tests.query_dump``. A
change that means to alter a formed or compiled text writes the file again
with that command, and the diff shows what it changed. On a mismatch the
test names the differing entries by their ``====`` headers, then shows the
unified diff.
"""
from __future__ import annotations

import difflib
import re
from pathlib import Path

import pytest

from tests.query_dump import dump

GOLDEN = Path(__file__).resolve().parent / "query_dump.txt"


def changed_entries(want: str, got: str) -> list[str]:
    """The header of each entry of dump ``want`` or ``got`` whose text
    differs between the two or that only one of them has, in dump order."""
    def entries(text):
        parts = re.split(r"^(==== .*)$", text, flags=re.MULTILINE)
        return dict(zip(parts[1::2], parts[2::2]))

    old, new = entries(want), entries(got)
    return [header for header in old | new if old.get(header) != new.get(header)]


def test_changed_entries_name_each_differing_header():
    want = "==== a [0]\nx\n==== b [0]\ny\n==== c [0]\nz\n"
    got = "==== a [0]\nx\n==== b [0]\nY\n==== d [0]\nz\n"
    assert changed_entries(want, got) == ["==== b [0]", "==== c [0]", "==== d [0]"]


def test_query_dump_matches_golden_file(spark):
    # a session of its own: the dump's Bench and Test views replace no other test's
    got, want = dump(spark.newSession()), GOLDEN.read_text()
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            "tests/query_dump.txt", "dump()",
        )
        changed = changed_entries(want, got)
        pytest.fail(
            f"the query dump differs from its golden file in {len(changed)} entries:\n"
            + "".join(f"  {header}\n" for header in changed)
            + "".join(diff)
        )
