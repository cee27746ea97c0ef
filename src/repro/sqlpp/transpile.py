"""SQL++ → Spark SQL transpiler (AsterixDB stand-in, DESIGN.md §2).

PolyFrame's SQL++ configuration generates the paper's exact Appendix-E
query shapes. No AsterixDB server is available offline, so this module
translates that SQL++ subset into Spark SQL, preserving semantics:

* ``SELECT VALUE t FROM ... t``            → ``SELECT t.* FROM ...``
* ``SELECT VALUE <expr> FROM``             → ``SELECT (<expr>) AS val FROM``
* ``SELECT DISTINCT VALUE <expr> FROM``    → ``SELECT DISTINCT (<expr>) AS val FROM``
* ``SELECT l, r FROM ... JOIN ...``        → ``SELECT struct(l.*) AS l, struct(r.*) AS r ...``
  (SQL++ returns the two bound records as nested objects; Spark structs
  model that and avoid duplicate top-level column names)
* ``FROM Namespace.Dataset t``             → ``FROM Namespace_Dataset t``
  (the SparkConnector's flat temp-view namespace)
* ``x IS UNKNOWN`` / ``x IS KNOWN``        → ``IS NULL`` / ``IS NOT NULL``
* ``to_bigint(e)`` / ``to_string(e)``      → ``CAST(e AS BIGINT/STRING)``

None of these rewrites applies inside a string literal
(:func:`repro.translate.outside_literals`).

The transpiler is deliberately narrow: it accepts exactly the composable
subset PolyFrame emits and raises on anything else it cannot place.
"""
from __future__ import annotations

import re

from repro.translate import outside_literals, replace_call

_BARE_VALUE_RE = re.compile(r"SELECT\s+VALUE\s+(\w+)\s+FROM", re.IGNORECASE)
_JOIN_VARS_RE = re.compile(r"SELECT\s+(\w+)\s*,\s*(\w+)\s+FROM", re.IGNORECASE)
_DATASET_RE = re.compile(r"FROM\s+(\w+)\.(\w+)(\s+\w+)", re.IGNORECASE)
_SELECT_VALUE_RE = re.compile(r"SELECT\s+(DISTINCT\s+)?VALUE\s+", re.IGNORECASE)


def _wrap_select_value(text: str) -> str:
    """Rewrite every ``SELECT [DISTINCT] VALUE <expr> FROM`` whose expr is
    not a bare variable into ``SELECT [DISTINCT] (<expr>) AS val FROM``,
    scanning parenthesis-aware for the matching top-level FROM."""
    out = []
    i = 0
    while m := _SELECT_VALUE_RE.search(text, i):
        out.append(text[i : m.start()])
        # find the FROM at depth 0 after the expression
        j = m.end()
        depth = 0
        from_at = None
        while j < len(text):
            ch = text[j]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break  # we are inside an enclosing subquery with no FROM
                depth -= 1
            elif depth == 0 and text[j : j + 5].upper() == "FROM ":
                # require word boundary before FROM
                if j == 0 or not text[j - 1].isalnum():
                    from_at = j
                    break
            j += 1
        if from_at is None:
            raise ValueError(f"SELECT VALUE without matching FROM in: {text!r}")
        expr = text[m.end() : from_at].strip()
        distinct = "DISTINCT " if m[1] else ""
        out.append(f"SELECT {distinct}({expr}) AS val FROM")
        i = from_at + 4
    out.append(text[i:])
    return "".join(out)


def transpile(query: str) -> str:
    """Translate one generated SQL++ query into executable Spark SQL.
    String literals pass through unchanged."""
    return outside_literals(query.strip().rstrip(";").strip(), _translate)


def _translate(text: str) -> str:
    # datasets → flat temp-view names
    text = _DATASET_RE.sub(r"FROM \1_\2\3", text)
    # bare-variable VALUE selects: whole-record passthrough
    text = _BARE_VALUE_RE.sub(r"SELECT \1.* FROM", text)
    # join record-pair select → nested structs (before generic VALUE pass)
    text = _JOIN_VARS_RE.sub(
        r"SELECT struct(\1.*) AS \1, struct(\2.*) AS \2 FROM", text
    )
    # remaining VALUE selects carry expressions
    text = _wrap_select_value(text)
    # missing-ness predicates
    text = re.sub(r"IS\s+UNKNOWN", "IS NULL", text, flags=re.IGNORECASE)
    text = re.sub(r"IS\s+KNOWN", "IS NOT NULL", text, flags=re.IGNORECASE)
    # type conversions
    text = replace_call(text, "to_bigint", "CAST({0} AS BIGINT)")
    return replace_call(text, "to_string", "CAST({0} AS STRING)")
