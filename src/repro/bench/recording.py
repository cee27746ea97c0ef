"""A recording connector: captures generated query text without executing.

Used by the Table I / Appendix query-formation tests and by
``jobs/table1_formation.py`` to print the paper's tables: PolyFrame's
actions run against this stub, which records the exact query text the
real connector would receive and returns a dummy result.
"""
from __future__ import annotations

import pandas as pd

from repro.core.connector import DBConnector


class RecordingConnector(DBConnector):
    """Records every query an action would send; never touches a backend."""

    def __init__(self, language: str, rules=None):
        self.language = language
        super().__init__(rules)
        self.queries: list[str] = []

    def initialize(self, namespace: str, collection: str) -> None:
        pass  # any dataset "exists"

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return pd.DataFrame([[0]])

    def execute(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        self.queries.append(query)  # record pre-preprocess (generated) text
        return super().execute(query, namespace, collection)

    @property
    def last_query(self) -> str:
        return self.queries[-1]
