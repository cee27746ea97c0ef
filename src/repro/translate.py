"""Text helpers shared by the query translators.

The SQL++ transpiler (:mod:`repro.sqlpp.transpile`) and the Cypher compiler
(:mod:`repro.cypher.engine`) rewrite query text with regular expressions,
one pattern per clause or function: a conversion function is renamed to the
Spark SQL cast function of the same call shape, so no call is parsed.
:func:`outside_literals` keeps those rewrites out of string literals, so a
value such as ``'a IS UNKNOWN'`` or ``'t.name'`` reaches Spark unchanged.
The Mongo and Cypher compilers build Spark SQL themselves, one ``SELECT``
per stage or clause, quoting identifiers with :func:`quote_ident`.
"""
from __future__ import annotations

import re
from typing import Callable

#: A single- or double-quoted string literal with backslash escapes.
_LITERAL_RE = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"", re.DOTALL)
_HIDDEN_RE = re.compile("\0(\\d+)\0")


def outside_literals(text: str, rewrite: Callable[[str], str]) -> str:
    """Apply ``rewrite`` to ``text`` with every string literal hidden.

    Each literal is swapped for an opaque placeholder before ``rewrite``
    runs and put back afterwards, so no pattern can match inside one.
    """
    literals: list[str] = []

    def hide(m: re.Match) -> str:
        literals.append(m.group(0))
        return f"\0{len(literals) - 1}\0"

    rewritten = rewrite(_LITERAL_RE.sub(hide, text))
    return _HIDDEN_RE.sub(lambda m: literals[int(m.group(1))], rewritten)


def quote_ident(name: str) -> str:
    """A Spark SQL identifier: ``name`` in backticks."""
    return "`" + name.replace("`", "``") + "`"
