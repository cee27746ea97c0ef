"""What the query translators share: literal-aware text rewriting, and the
Spark front of the Mongo and Cypher compilers.

The SQL++ transpiler (:mod:`repro.sqlpp.transpile`) and the Cypher compiler
(:mod:`repro.cypher.engine`) rewrite query text with regular expressions,
one pattern per clause or function: a conversion function is renamed to the
Spark SQL cast function of the same call shape, so no call is parsed.
:func:`outside_literals` keeps those rewrites out of string literals and
backticked names, so a value such as ``'a IS UNKNOWN'`` or ``'t.name'``
reaches Spark unchanged; the Cypher compiler splits a projection's items
with :func:`hide_literals` for the same reason.

The Mongo and Cypher compilers build Spark SQL themselves, one ``SELECT``
per stage or clause, quoting identifiers with :func:`quote_ident`. Both are
a :class:`SparkCompiler`: it resolves each dataset a query names through
the connector the compiler serves, and runs the compiled text with one
``spark.sql`` call.
"""
from __future__ import annotations

import re
from typing import Callable

from pyspark.sql import DataFrame

from repro.backends.spark import SparkConnector, view_name
from repro.core.connector import DatasetNotRegistered

#: A string literal in single or double quotes, or a name in backticks, each
#: with backslash escapes; one left open runs to the end of the text.
_LITERAL_RE = re.compile(
    "|".join(rf"{c}(?:[^{c}\\]|\\.)*(?:{c}|\\?\Z)" for c in "'\"`"), re.DOTALL
)
_HIDDEN_RE = re.compile("\0(\\d+)\0")


def hide_literals(text: str) -> tuple[str, Callable[[str], str]]:
    """``text`` with every string literal and backticked name swapped for an
    opaque placeholder, and the function that puts them back into a text
    made from it."""
    literals: list[str] = []

    def hide(m: re.Match) -> str:
        literals.append(m.group(0))
        return f"\0{len(literals) - 1}\0"

    hidden = _LITERAL_RE.sub(hide, text)
    return hidden, lambda made: _HIDDEN_RE.sub(lambda m: literals[int(m.group(1))], made)


def outside_literals(text: str, rewrite: Callable[[str], str]) -> str:
    """Apply ``rewrite`` to ``text`` with every literal hidden, so no
    pattern can match inside one."""
    hidden, restore = hide_literals(text)
    return restore(rewrite(hidden))


def quote_ident(name: str) -> str:
    """A Spark SQL identifier: ``name`` in backticks."""
    return "`" + name.replace("`", "``") + "`"


class SparkCompiler:
    """Compiles a query language over the datasets of ``connector`` to Spark
    SQL and runs each query with one ``spark.sql`` call. A subclass defines
    ``compile``, which returns the Spark SQL text, and :attr:`error`."""

    #: raised for a query outside the compiler's subset or an unknown dataset
    error: type[ValueError]

    def __init__(self, connector: SparkConnector):
        self.connector = connector
        # Bound once: the compiler's DataFrame is the action's only one, and a
        # wrapper later put on the session must not see its query again.
        self.sql = connector.spark.sql

    def execute(self, *query) -> DataFrame:
        return self.sql(self.compile(*query))

    def _view(self, namespace: str, name: str, what: str) -> str:
        """The quoted view of the dataset ``namespace.name``, which the
        connector's ``initialize`` verifies; ``what`` is the language's word
        for a dataset in the error for an unknown one."""
        try:
            self.connector.initialize(namespace, name)
        except DatasetNotRegistered:
            raise self.error(f"unknown {what} {name!r}") from None
        return quote_ident(view_name(namespace, name))
