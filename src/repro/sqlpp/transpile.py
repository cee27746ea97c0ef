"""SQL++ → Spark SQL transpiler (AsterixDB stand-in, DESIGN.md §2).

PolyFrame's SQL++ configuration generates the paper's exact Appendix-E
query shapes. No AsterixDB server is available offline, so this module
translates that SQL++ subset into Spark SQL, preserving semantics:

* ``SELECT VALUE t FROM ... t``            → ``SELECT t.* FROM ...``
* ``SELECT VALUE <expr> FROM``             → ``SELECT (<expr>) AS val FROM``
* ``SELECT l, r FROM ... JOIN ...``        → ``SELECT struct(l.*) AS l, struct(r.*) AS r ...``
  (SQL++ returns the two bound records as nested objects; Spark structs
  model that and avoid duplicate top-level column names)
* ``FROM Namespace.Dataset t``             → ``FROM Namespace_Dataset t``
  (the SparkConnector's flat temp-view namespace)
* ``x IS UNKNOWN`` / ``x IS KNOWN``        → ``IS NULL`` / ``IS NOT NULL``
* ``to_bigint(e)`` / ``to_string(e)``      → ``bigint(e)`` / ``string(e)``
  (Spark SQL's cast functions: a rename, so no call is parsed)

None of these rewrites applies inside a string literal or a backticked
name (:func:`repro.translate.outside_literals`).

The transpiler is deliberately narrow: it accepts exactly the composable
subset PolyFrame emits and raises on anything else it cannot place.
"""
from __future__ import annotations

import re

from repro.backends.spark import view_name
from repro.translate import outside_literals

_BARE_VALUE_RE = re.compile(r"SELECT\s+VALUE\s+(\w+)\s+FROM", re.IGNORECASE)
_JOIN_VARS_RE = re.compile(r"SELECT\s+(\w+)\s*,\s*(\w+)\s+FROM", re.IGNORECASE)
_DATASET_RE = re.compile(r"FROM\s+(\w+)\.(\w+)(\s+\w+)", re.IGNORECASE)
_SELECT_VALUE_RE = re.compile(r"SELECT\s+(DISTINCT\s+)?VALUE\s+", re.IGNORECASE)
#: ``SELECT VALUE <expr> FROM``: PolyFrame emits no subquery inside
#: ``<expr>``, so its FROM is the first one after it.
_VALUE_EXPR_RE = re.compile(r"SELECT\s+VALUE\s+(.+?)\s+FROM\b", re.IGNORECASE | re.DOTALL)


def transpile(query: str) -> str:
    """Translate one generated SQL++ query into executable Spark SQL.
    String literals pass through unchanged."""
    return outside_literals(query.strip().rstrip(";").strip(), _translate)


def _translate(text: str) -> str:
    # datasets → flat temp-view names
    text = _DATASET_RE.sub(lambda m: f"FROM {view_name(m[1], m[2])}{m[3]}", text)
    # bare-variable VALUE selects: whole-record passthrough
    text = _BARE_VALUE_RE.sub(r"SELECT \1.* FROM", text)
    # join record-pair select → nested structs (before generic VALUE pass)
    text = _JOIN_VARS_RE.sub(
        r"SELECT struct(\1.*) AS \1, struct(\2.*) AS \2 FROM", text
    )
    # remaining VALUE selects carry expressions
    text = _VALUE_EXPR_RE.sub(r"SELECT (\1) AS val FROM", text)
    if _SELECT_VALUE_RE.search(text):  # no rule emits SELECT DISTINCT VALUE
        raise ValueError(f"SELECT VALUE without matching FROM, or DISTINCT, in: {text!r}")
    # missing-ness predicates
    text = re.sub(r"IS\s+UNKNOWN", "IS NULL", text, flags=re.IGNORECASE)
    text = re.sub(r"IS\s+KNOWN", "IS NOT NULL", text, flags=re.IGNORECASE)
    # type conversions: Spark SQL's cast function of the same call shape
    return re.sub(r"\bto_(bigint|string)\s*\(", r"\1(", text, flags=re.IGNORECASE)
