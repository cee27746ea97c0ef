"""A recording connector: captures generated query text without executing.

Used by the Table I / Appendix query-formation tests and by
``jobs/table1_formation.py`` to print the paper's tables: PolyFrame's
actions run against this stub, which records the exact query text the
real connector would receive and returns a dummy result. Table I's
operation chain is formed here once, by :func:`table1`.
"""
from __future__ import annotations

import pandas as pd

from repro.core import PolyFrame
from repro.core.connector import DBConnector

#: Table I's operations as the paper prints them: five transformations of
#: the frame ``af`` of ``Test.Users``, then one action.
TABLE1_OPS = (
    "af = PolyFrame('Test', 'Users')",
    "af['lang']",
    "af['lang'] == 'en'",
    "af[af['lang'] == 'en']",
    "af[af['lang'] == 'en'][['name', 'address']]",
    "af[af['lang'] == 'en'][['name', 'address']].head(10)",
)


class RecordingConnector(DBConnector):
    """Records every query an action would send; never touches a backend."""

    def __init__(self, language: str, rules=None):
        self.language = language
        super().__init__(rules)
        self.queries: list[str] = []
        self.collections: list[str] = []  # the collection each action names

    def initialize(self, namespace: str, collection: str) -> None:
        pass  # any dataset "exists"

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return pd.DataFrame([[0]])

    def execute(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        self.queries.append(query)  # record pre-preprocess (generated) text
        self.collections.append(collection)
        return super().execute(query, namespace, collection)

    @property
    def last_query(self) -> str:
        return self.queries[-1]


def table1(connector: RecordingConnector) -> list[str]:
    """The query text of each of :data:`TABLE1_OPS` on ``connector``: each
    transformation's ``query``, which sends nothing, then the text the
    action sends."""
    af = PolyFrame("Test", "Users", connector)
    kept = af[af["lang"] == "en"][["name", "address"]]
    frames = (af, af["lang"], af["lang"] == "en", af[af["lang"] == "en"], kept)
    kept.head(10)
    return [frame.query for frame in frames] + [connector.last_query]
