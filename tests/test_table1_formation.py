"""Paper Table I: incremental query formation, six operations × languages.

For each language we replay the exact operation chain of Table I

    1  af = AFrame('Test', 'Users')
    2  af['lang']
    3  af['lang'] == 'en'
    4  af[af['lang'] == 'en']
    5  af[af['lang'] == 'en'][['name', 'address']]
    6  af[...][['name', 'address']].head(10)

and assert the generated query text. Expected strings follow the paper's
Table I / Appendix A byte-for-byte up to these documented deviations:

* computed value columns (op 3) carry an explicit alias ``val`` where the
  paper leaves SQL/SQL++ unaliased and calls the Mongo field ``is_eq`` —
  a deterministic alias is required for cross-backend result checks;
* the SQL dialect quotes identifiers (``t."lang"``) as the paper's own
  Appendix F does, where Table I shows them unquoted;
* string literals use each config's declared quote (``'en'`` / ``"en"``);
* no trailing semicolon (added by a real server client, not the rules);
* sparksql is this reproduction's new fifth column (repro target).

Operation 4 deriving from operation *1* (not 3) — Table I footnote 1 —
is asserted structurally at the bottom.
"""
from __future__ import annotations

import json

import pytest

from repro.bench.recording import RecordingConnector, table1
from repro.core import PolyFrame

EXPECTED: dict[str, dict[int, str]] = {
    "sqlpp": {
        1: "SELECT VALUE t FROM Test.Users t",
        2: "SELECT t.lang FROM (SELECT VALUE t FROM Test.Users t) t",
        3: "SELECT VALUE t.lang = 'en' FROM (SELECT t.lang FROM (SELECT VALUE t FROM Test.Users t) t) t",
        4: "SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t WHERE t.lang = 'en'",
        5: "SELECT t.name, t.address FROM (SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t WHERE t.lang = 'en') t",
        6: "SELECT t.name, t.address FROM (SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t WHERE t.lang = 'en') t\nLIMIT 10",
    },
    "sql": {
        1: "SELECT * FROM Test.Users",
        2: 'SELECT t."lang" FROM (SELECT * FROM Test.Users) t',
        3: 'SELECT t."lang" = \'en\' AS "val" FROM (SELECT t."lang" FROM (SELECT * FROM Test.Users) t) t',
        4: 'SELECT t.* FROM (SELECT * FROM Test.Users) t WHERE t."lang" = \'en\'',
        5: 'SELECT t."name", t."address" FROM (SELECT t.* FROM (SELECT * FROM Test.Users) t WHERE t."lang" = \'en\') t',
        6: 'SELECT t."name", t."address" FROM (SELECT t.* FROM (SELECT * FROM Test.Users) t WHERE t."lang" = \'en\') t\nLIMIT 10',
    },
    "cypher": {
        1: "MATCH (t: Users)",
        2: "MATCH (t: Users)\nWITH t{'lang': t.lang}",
        3: "MATCH (t: Users)\nWITH t{'lang': t.lang}\nWITH t{'val': t.lang = 'en'}",
        4: "MATCH (t: Users)\nWITH t WHERE t.lang = 'en'",
        5: "MATCH (t: Users)\nWITH t WHERE t.lang = 'en'\nWITH t{'name': t.name, 'address': t.address}",
        6: "MATCH (t: Users)\nWITH t WHERE t.lang = 'en'\nWITH t{'name': t.name, 'address': t.address}\nRETURN t\nLIMIT 10",
    },
    "sparksql": {
        1: "SELECT * FROM Test_Users t",
        2: "SELECT t.lang FROM (SELECT * FROM Test_Users t) t",
        3: "SELECT t.lang = 'en' AS `val` FROM (SELECT t.lang FROM (SELECT * FROM Test_Users t) t) t",
        4: "SELECT t.* FROM (SELECT * FROM Test_Users t) t WHERE t.lang = 'en'",
        5: "SELECT t.name, t.address FROM (SELECT t.* FROM (SELECT * FROM Test_Users t) t WHERE t.lang = 'en') t",
        6: "SELECT t.name, t.address FROM (SELECT t.* FROM (SELECT * FROM Test_Users t) t WHERE t.lang = 'en') t\nLIMIT 10",
    },
}

#: Mongo compared as parsed pipelines (Table I shows stage JSON).
EXPECTED_MONGO: dict[int, list] = {
    1: [{"$match": {}}],
    2: [{"$match": {}}, {"$project": {"lang": 1}}],
    3: [
        {"$match": {}},
        {"$project": {"lang": 1}},
        {"$project": {"val": {"$eq": ["$lang", "en"]}}},
    ],
    4: [{"$match": {}}, {"$match": {"$expr": {"$eq": ["$lang", "en"]}}}],
    5: [
        {"$match": {}},
        {"$match": {"$expr": {"$eq": ["$lang", "en"]}}},
        {"$project": {"name": 1, "address": 1}},
    ],
    # Appendix A / Fig. 4: _id excluded last "because its presence in the
    # pipeline enables index usage", then LIMIT.
    6: [
        {"$match": {}},
        {"$match": {"$expr": {"$eq": ["$lang", "en"]}}},
        {"$project": {"name": 1, "address": 1}},
        {"$project": {"_id": 0}},
        {"$limit": 10},
    ],
}


def _table1_ops(lang: str) -> dict[int, str]:
    return dict(enumerate(table1(RecordingConnector(lang)), 1))


@pytest.mark.parametrize("lang", sorted(EXPECTED))
@pytest.mark.parametrize("op", range(1, 7))
def test_table1_text(lang, op):
    assert _table1_ops(lang)[op] == EXPECTED[lang][op]


@pytest.mark.parametrize("op", range(1, 7))
def test_table1_mongo_pipeline(op):
    got = json.loads("[" + _table1_ops("mongo")[op] + "]")
    assert got == EXPECTED_MONGO[op]


@pytest.mark.parametrize("lang", sorted(EXPECTED) + ["mongo"])
def test_footnote1_filter_derives_from_frame_not_boolean_column(lang):
    """Table I footnote 1: dataframe 4 is derived from dataframe 1 (the
    frame) even though the boolean column (3) was built on the projection
    (2) — i.e. op 3's query text must NOT appear inside op 4's."""
    ops = _table1_ops(lang)
    assert ops[1] in ops[4]
    assert ops[3] not in ops[4]


@pytest.mark.parametrize("lang", sorted(EXPECTED) + ["mongo"])
def test_incrementality_each_op_contains_previous(lang):
    """§III-B: each query is composed from the previous operation's query."""
    ops = _table1_ops(lang)
    assert ops[1] in ops[2]
    assert ops[2] in ops[3]  # value column builds on the projection
    assert ops[4] in ops[5]
    assert ops[5] in ops[6]


@pytest.mark.parametrize("lang", sorted(EXPECTED) + ["mongo"])
def test_transformations_send_nothing(lang):
    """Ops 1–5 are transformations: no query may reach the connector."""
    conn = RecordingConnector(lang)
    af = PolyFrame("Test", "Users", conn)
    _ = af[af["lang"] == "en"][["name", "address"]]
    assert conn.queries == []
