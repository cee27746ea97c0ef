"""Database connector abstraction (paper §III-A).

The paper's connector is "an abstract class in AFrame that makes
connections to database engines" with three required responsibilities:
AFrame/PolyFrame **initialization** (``initialize``: verifying the target
dataset exists), **pre-processing** of queries before sending them
(``preprocess``), and **post-processing** of query results
(``postprocess``) — which are always returned as a pandas DataFrame.
``send_query`` runs the prepared text and ``execute`` chains the three; the
core asks a connector for nothing else (``describe()`` reads a frame's
columns from its own result, not from a schema).

Concrete connectors live in :mod:`repro.backends`; each one also carries
the default :class:`~repro.core.rewrite.RewriteRules` for its language, so
``PolyFrame('Test', 'Users', connector)`` is all a user needs.
"""
from __future__ import annotations

from abc import ABC, abstractmethod

import pandas as pd

from .rewrite import RewriteRules, load_language


class DatasetNotRegistered(LookupError):
    """The connector has no dataset under the requested namespace/collection."""


class DBConnector(ABC):
    """Abstract database connector.

    Subclasses set :attr:`language` (the name of a bundled language config)
    and implement :meth:`initialize` and :meth:`send_query`. Overriding
    :meth:`preprocess` / :meth:`postprocess` is optional. That is the whole
    contract: the three methods the paper describes for adding a new
    backend.
    """

    #: Name of the bundled language configuration this connector speaks.
    language: str = ""

    def __init__(self, rules: RewriteRules | None = None):
        self._rules = rules if rules is not None else load_language(self.language)

    @property
    def rules(self) -> RewriteRules:
        """The language rewrite rules this connector's backend understands."""
        return self._rules

    # -- the three required methods (paper §III-A) ----------------------
    @abstractmethod
    def initialize(self, namespace: str, collection: str) -> None:
        """Verify that ``namespace.collection`` exists in the backend.

        Called by the ``PolyFrame`` constructor; must raise
        :class:`DatasetNotRegistered` for unknown datasets so user errors
        surface at frame-creation time, not at first action.
        """

    def preprocess(self, query: str, namespace: str, collection: str) -> str:
        """Rewrite the final query text before sending (default: identity)."""
        return query

    @abstractmethod
    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        """Run ``query`` against the backend and return raw results."""

    def postprocess(self, result: pd.DataFrame) -> pd.DataFrame:
        """Shape raw results into the pandas DataFrame handed to the user."""
        return result

    # -- driver ----------------------------------------------------------
    def execute(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        """preprocess → send → postprocess. The single action entry point."""
        prepared = self.preprocess(query, namespace, collection)
        return self.postprocess(self.send_query(prepared, namespace, collection))
