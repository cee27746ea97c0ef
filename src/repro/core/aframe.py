"""PolyFrame: Pandas-like dataframes via incremental query formation.

This is the paper's core contribution (§III). A :class:`PolyFrame` holds no
data — only the query text accumulated so far (``self.query``) plus the
connector that will eventually run it. Every Pandas-style operation is
either a

* **transformation** — applies a rewrite rule to the current query and
  returns a *new* PolyFrame (``pf['a']``, ``pf[pf['a'] == 1]``,
  ``groupby``, ``sort_values``, ``merge``, arithmetic/comparison on
  columns, ``get_dummies``) — no query is executed, no intermediate
  result materializes; or an
* **action** — finalizes the query (e.g. appends the language's LIMIT
  rule) and ships it through the connector (``head``, ``toPandas``,
  ``len(pf)``, scalar aggregates, ``describe``).

Column expressions mirror Table I of the paper. Every column operation is
one derivation step (:meth:`PolyFrameColumn._derive`) with one rule. The
new column's ``expr`` composes over the *base* frame, so ``pf[pf['lang']
== 'en']`` filters that frame (Table I footnote 1), also after ``map`` or
arithmetic. Its own query wraps the column's query and reads it by name
(Table I row 3), unless the op reads a second column: then it composes
over the frame, where both operands are in scope. Every expression rule
yields a complete expression of its language (a Mongo operator nests as
JSON), so no derivation needs a language-specific step.
"""
from __future__ import annotations

import operator
from typing import Callable

import pandas as pd

from .connector import DBConnector
from .rewrite import RewriteRules

#: pandas-style aggregate name -> rewrite-rule key
_AGG_RULES = {
    "min": "min",
    "max": "max",
    "avg": "avg",
    "mean": "avg",
    "std": "std",
    "count": "count",
}

#: python callables accepted by ``map`` -> rewrite-rule key
_MAP_RULES: dict[object, str] = {
    str.upper: "upper",
    str.lower: "lower",
    abs: "abs",
}

#: ``astype`` targets -> rewrite-rule key
_ASTYPE_RULES: dict[object, str] = {int: "to_int", str: "to_str", "int": "to_int", "str": "to_str"}

#: The rules of the COMPARISON STATEMENTS: an operand that one of them
#: formed is wrapped by the ``group`` rule when its operator is one too, so
#: ``(a == b) == (b > 0)`` is not read as ``a = b = b > 0``.
_COMPARISONS = frozenset(("eq", "ne", "gt", "lt", "ge", "le", "is_missing", "not_missing"))

#: An operand that one of these rules formed is a boolean: the ``to_int``
#: rule casts it under arithmetic, so ``(a == b) + 1`` adds 0 or 1 as in
#: pandas and is not read as ``a = b + 1``.
_BOOLEANS = _COMPARISONS | {"and", "or", "not"}
_ARITHMETIC = frozenset(("add", "sub", "mul", "div", "mod"))

#: Arithmetic of two boolean operands, as in pandas: ``+`` is a logical or
#: and ``*`` a logical and; ``-`` and ``/`` raise (``None``). ``%`` is not
#: here: it casts both operands to 0/1.
_BOOLEAN_ARITHMETIC = {"add": "or", "mul": "and", "sub": None, "div": None}

#: ``other`` of a unary derivation (``None`` is the NULL literal)
_UNARY = object()


def _native(value: object) -> object:
    """Convert numpy scalars to python natives for literal formatting."""
    item = getattr(value, "item", None)
    return item() if callable(item) else value


def _operator(rule: str) -> Callable:
    """A column operator method: one derivation by rewrite rule ``rule``."""
    return lambda self, other: self._derive(rule, other)


def _aggregate(func: str) -> Callable:
    """A scalar aggregate method: the action ``agg(func)``."""
    return lambda self: self.agg(func)


class PolyFrame:
    """A lazy, query-backed dataframe over one backend dataset."""

    def __init__(
        self,
        namespace: str,
        collection: str,
        connector: DBConnector,
        _query: str | None = None,
    ):
        self.namespace = namespace
        self.collection = collection
        self.connector = connector
        if _query is None:
            # Frame creation only verifies the dataset and forms q1 — it
            # never loads data (the paper's "DataFrame creation time" for
            # PolyFrame is query-formation time only).
            connector.initialize(namespace, collection)
            _query = self.rules.apply(
                "q1", namespace=namespace, collection=collection
            )
        self.query = _query

    @property
    def rules(self) -> RewriteRules:
        """The connector's rules, user-defined rewrites included."""
        return self.connector.rules

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _frame(self, query: str) -> "PolyFrame":
        return PolyFrame(self.namespace, self.collection, self.connector, _query=query)

    def _column(self, query: str, **state) -> "PolyFrameColumn":
        """A column of this frame's dataset; ``state`` is its ``expr``,
        ``name``, ``base_query`` and ``rule``."""
        return PolyFrameColumn(
            self.namespace, self.collection, self.connector, _query=query, **state
        )

    def _check_frame(self, column: "PolyFrameColumn", base_query: str | None = None) -> None:
        """Raise ``ValueError`` if ``column`` reads another dataset or
        connector than this frame or, given ``base_query``, derives from
        another frame. A Mongo query names no dataset, and two connectors
        may hold datasets of one name, so both are compared too."""
        if (
            (column.namespace, column.collection) != (self.namespace, self.collection)
            or column.connector is not self.connector
            or (base_query is not None and column.base_query != base_query)
        ):
            raise ValueError(f"cannot combine different frames (column {column.name!r})")

    def _execute(self, query: str) -> pd.DataFrame:
        return self.connector.execute(query, self.namespace, self.collection)

    def _finalized(self, query: str) -> str:
        """Wrap a non-terminal query with the language's return-all rule."""
        return self.rules.apply("return_all", subquery=query)

    def _group_extras(self, attrs: list[str]) -> dict[str, str]:
        """grp_key / grp_restore variables for languages that define them
        (MongoDB's $group needs the keys packed into _id and restored)."""
        return {
            rule: self.rules.join_items([self.rules.apply(rule, attribute=a) for a in attrs])
            for rule in ("grp_key", "grp_restore")
            if self.rules.has(rule)
        }

    def _agg_item(self, func: str, attribute: str) -> str:
        """One aliased aggregate output, e.g. ``MAX(t.four) AS max_four``."""
        rule = _AGG_RULES.get(func)
        if rule is None:
            raise ValueError(
                f"unsupported aggregate {func!r}; choose from {sorted(_AGG_RULES)}"
            )
        fragment = self.rules.apply(rule, attribute=attribute)
        return self.rules.apply(
            "attribute_alias", alias=f"{rule}_{attribute}", attribute=fragment
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.namespace}.{self.collection} "
            f"[{self.rules.meta('language')}]\n{self.query}>"
        )

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def __getitem__(self, key):
        if isinstance(key, PolyFrameColumn):
            # selection: pf[bool_col] — composed over THIS frame's query,
            # with the column's raw predicate (Table I footnote 1).
            self._check_frame(key)
            return self._frame(self.rules.apply("q6", subquery=self.query, statement=key.expr))
        if isinstance(key, str):
            proj = self.rules.apply("proj_attr", attribute=key)
            query = self.rules.apply("q2", subquery=self.query, attribute_alias=proj)
            expr = self.rules.apply("single_attribute", attribute=key)
            return self._column(query, expr=expr, name=key, base_query=self.query)
        if isinstance(key, (list, tuple)):
            items = self.rules.join_items([self.rules.apply("proj_attr", attribute=a) for a in key])
            return self._frame(self.rules.apply("q2", subquery=self.query, attribute_alias=items))
        raise TypeError(f"unsupported key type: {type(key).__name__}")

    def sort_values(self, by: str, ascending: bool = True) -> "PolyFrame":
        if not isinstance(by, str):
            raise TypeError("sort_values supports a single attribute name")
        # q5 sorts ascending by its $sort_asc_attr, q4 descending
        rule, query = ("sort_asc_attr", "q5") if ascending else ("sort_desc_attr", "q4")
        attr = {rule: self.rules.apply(rule, attribute=by)}
        return self._frame(self.rules.apply(query, subquery=self.query, **attr))

    def groupby(self, by: str | list[str]) -> "PolyFrameGroupBy":
        attrs = [by] if isinstance(by, str) else list(by)
        return PolyFrameGroupBy(self, attrs)

    def merge(
        self,
        other: "PolyFrame",
        on: str | None = None,
        left_on: str | None = None,
        right_on: str | None = None,
        how: str = "inner",
    ) -> "PolyFrame":
        """Equi-join, like ``pd.merge`` (inner only, as in the paper).
        Raises ``ValueError`` if ``other`` has another connector: one query
        reads both sides from one backend."""
        if other.connector is not self.connector:
            raise ValueError("cannot merge frames of different connectors")
        if how != "inner":
            raise ValueError("only inner joins are supported (paper's expr. 12)")
        if on is not None:
            left_on = right_on = on
        if left_on is None or right_on is None:
            raise ValueError("merge requires `on` or both `left_on`/`right_on`")
        return self._frame(
            self.rules.apply(
                "q10",
                left_query=self.query,
                right_query=other.query,
                left_on=left_on,
                right_on=right_on,
                other_collection=other.collection,
            )
        )

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def head(self, n: int = 5) -> pd.DataFrame:
        """Return the first ``n`` rows (appends the language's LIMIT rule).

        Raises ``TypeError`` if ``n`` is not an integer, as pandas does, and
        ``ValueError`` if it is negative: pandas then drops the last rows,
        which a LIMIT cannot form."""
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"head() takes no negative count, got {n}")
        return self._execute(self.rules.apply("limit", subquery=self.query, num=n))

    def toPandas(self) -> pd.DataFrame:
        """Materialize the full result (the return-all rule)."""
        return self._execute(self._finalized(self.query))

    collect = toPandas

    def __len__(self) -> int:
        result = self._execute(self.rules.apply("q3", subquery=self.query))
        return int(result.iloc[0, 0])

    def _numeric_columns(self) -> list[str]:
        """The columns of this frame's result that pandas describes: those
        of a numeric dtype other than bool, read from ``head(1)``."""
        dtypes = self.head(1).dtypes
        if dtypes.index.has_duplicates:
            raise ValueError("describe() cannot tell apart columns of one name")
        numeric = [
            c for c, t in dtypes.items()
            if pd.api.types.is_numeric_dtype(t) and not pd.api.types.is_bool_dtype(t)
        ]
        if not numeric:
            raise ValueError("describe() found no numeric column to describe")
        return numeric

    def describe(self, columns: list[str] | None = None) -> pd.DataFrame:
        """Summary statistics — a *generic rule* (paper §III-C-2): composed
        from the language-specific aggregate rules 3–7 of Fig. 3, chained
        with ``attribute_separator``, then folded through q8. Returns a
        pandas-describe-shaped frame (stats × attributes).

        Without ``columns`` it describes the numeric columns that
        ``toPandas()`` would return, as pandas does, at the cost of one
        ``head(1)`` action. Raises ``ValueError`` if two of that result's
        columns share a name or none is numeric.
        """
        if columns is None:
            columns = self._numeric_columns()
        stats = ("count", "avg", "std", "min", "max")
        items = [self._agg_item(f, c) for c in columns for f in stats]
        query = self.rules.apply(
            "q8", subquery=self.query, agg_func=self.rules.join_items(items)
        )
        row = self._execute(self._finalized(query)).iloc[0]
        return pd.DataFrame(
            {c: [row[f"{f}_{c}"] for f in stats] for c in columns},
            index=list(stats),
        )


class PolyFrameColumn(PolyFrame):
    """A single (possibly computed) column of a PolyFrame.

    Carries four pieces of state beyond the frame: ``expr`` — the
    language-specific fragment denoting this column inside a statement over
    ``base_query``; ``name`` — its output alias; ``base_query`` — the
    query of the frame it was derived from, which every column derived
    from it keeps; and ``rule`` — the rule that formed ``expr`` (``None``
    for a dataset attribute). ``query`` is the column's own value query.
    """

    def __init__(
        self, *args, expr: str, name: str, base_query: str, rule: str | None = None, **kwargs
    ):
        super().__init__(*args, **kwargs)
        self.expr = expr
        self.name = name
        self.base_query = base_query
        self.rule = rule

    # -- the derivation step -------------------------------------------
    def _derive(
        self, rule: str, other: object = _UNARY, name: str = "val"
    ) -> "PolyFrameColumn":
        """Derive a column by applying rewrite rule ``rule`` to this column
        and, for a binary rule, to ``other`` (a column or a literal); the
        result is named ``name``. Applies the module's one rule: ``expr``
        over the frame; the value query over the frame if ``other`` is a
        column, else over this column's own query, by name.

        Raises ``ValueError`` if ``other`` is a column of another frame, and
        ``TypeError`` for ``-`` or ``/`` of two boolean operands, as pandas.
        """
        if isinstance(other, PolyFrameColumn):
            self._check_frame(other, self.base_query)
            other_boolean = other.rule in _BOOLEANS
        else:
            other = _native(other)
            other_boolean = isinstance(other, bool)
        if rule in _BOOLEAN_ARITHMETIC and other_boolean and self.rule in _BOOLEANS:
            if _BOOLEAN_ARITHMETIC[rule] is None:
                raise TypeError(f"pandas cannot {rule} two boolean operands")
            rule = _BOOLEAN_ARITHMETIC[rule]

        def operand(column: PolyFrameColumn, text: str) -> str:
            if rule in _ARITHMETIC and column.rule in _BOOLEANS:
                return self.rules.apply("to_int", statement=text)
            if rule in _COMPARISONS and column.rule in _COMPARISONS:
                return self.rules.apply("group", statement=text)
            return text

        variables = {}
        if isinstance(other, PolyFrameColumn):
            variables["right"] = operand(other, other.expr)
        elif other is not _UNARY:
            # under arithmetic a boolean literal is its 0/1, as in pandas
            value = int(other) if rule in _ARITHMETIC and other_boolean else other
            variables["right"] = self.rules.literal(value)

        def form(text: str) -> str:
            left = operand(self, text)
            return self.rules.apply(rule, left=left, statement=left, **variables)

        expr = form(self.expr)
        if isinstance(other, PolyFrameColumn):
            subquery, statement = self.base_query, expr
        else:
            ref = self.rules.apply("single_attribute", attribute=self.name)
            subquery, statement = self.query, form(ref)
        query = self.rules.apply("q7", subquery=subquery, statement=statement, alias=name)
        return self._column(query, expr=expr, name=name, base_query=self.base_query, rule=rule)

    # comparisons return boolean columns (Table I row 3)
    __eq__ = _operator("eq")  # type: ignore[assignment]
    __ne__ = _operator("ne")  # type: ignore[assignment]
    __gt__ = _operator("gt")
    __lt__ = _operator("lt")
    __ge__ = _operator("ge")
    __le__ = _operator("le")
    __hash__ = None  # boolean columns are not hashable, like pandas Series

    # logicals and arithmetic
    __and__ = _operator("and")
    __or__ = _operator("or")
    __add__ = _operator("add")
    __sub__ = _operator("sub")
    __mul__ = _operator("mul")
    __truediv__ = _operator("div")
    __mod__ = _operator("mod")

    def __invert__(self):
        return self._derive("not")

    # missing-data predicates (paper's added benchmark expression 13)
    def isna(self) -> "PolyFrameColumn":
        return self._derive("is_missing")

    def notna(self) -> "PolyFrameColumn":
        return self._derive("not_missing")

    # scalar functions
    def map(self, func: Callable) -> "PolyFrameColumn":
        """Apply a supported scalar function (e.g. ``str.upper``) through
        the language's FUNCTIONS rules (paper's benchmark expression 5)."""
        rule = _MAP_RULES.get(func)
        if rule is None:
            raise ValueError(f"unsupported map function: {func!r}")
        return self._derive(rule, name=self.name)

    def astype(self, target: type | str) -> "PolyFrameColumn":
        rule = _ASTYPE_RULES.get(target)
        if rule is None:
            raise ValueError(f"unsupported astype target: {target!r}")
        return self._derive(rule, name=self.name)

    # -- aggregate actions ----------------------------------------------
    def agg(self, func: str):
        """Scalar aggregate over this column (action)."""
        item = self._agg_item(func, self.name)
        query = self.rules.apply("q8", subquery=self.query, agg_func=item)
        result = self._execute(self._finalized(query))
        return _native(result.iloc[0, 0])

    max = _aggregate("max")
    min = _aggregate("min")
    mean = _aggregate("avg")
    std = _aggregate("std")
    count = _aggregate("count")

    # -- generic rule: one-hot encoding ----------------------------------
    def get_dummies(self) -> PolyFrame:
        """One-hot encode this column — a *generic rule* (paper §III-C-2):
        an action fetches the distinct values (q11), then the projection is
        composed from comparison + type-conversion + alias rewrite rules.
        Both wrap this column's own query and read it by name, like any op
        on this column alone. Returns a lazy PolyFrame (the projection
        itself is a transformation).
        """
        distinct_q = self.rules.apply(
            "q11",
            subquery=self.query,
            attribute=self.name,
            **self._group_extras([self.name]),
        )
        values = self._execute(self._finalized(distinct_q))
        distinct = sorted(
            {_native(v) for v in values.iloc[:, 0].dropna().tolist()},
            key=lambda v: (str(type(v)), v),
        )
        ref = self.rules.apply("single_attribute", attribute=self.name)
        items = []
        for v in distinct:
            cmp_expr = self.rules.apply("eq", left=ref, right=self.rules.literal(v))
            int_expr = self.rules.apply("to_int", statement=cmp_expr)
            alias = f"{self.name}_{v}"
            items.append(
                self.rules.apply("attribute_alias", alias=alias, attribute=int_expr)
            )
        query = self.rules.apply(
            "q2", subquery=self.query, attribute_alias=self.rules.join_items(items)
        )
        return self._frame(query)


class PolyFrameGroupBy:
    """Deferred ``groupby`` — resolves to a q9 group-by query on ``agg``."""

    def __init__(self, frame: PolyFrame, by: list[str], target: str | None = None):
        self._frame = frame
        self._by = by
        self._target = target

    def __getitem__(self, column: str) -> "PolyFrameGroupBy":
        return PolyFrameGroupBy(self._frame, self._by, target=column)

    def agg(self, func: str) -> PolyFrame:
        """Group-by aggregate (transformation — returns a lazy PolyFrame).

        Like the paper's benchmark rewrites, ``agg`` without a selected
        column aggregates the grouping attribute itself (Appendix E #4).
        """
        frame, rules = self._frame, self._frame.rules
        target = self._target if self._target is not None else self._by[0]
        grp_items = [rules.apply("proj_attr", attribute=a) for a in self._by]
        query = rules.apply(
            "q9",
            subquery=frame.query,
            grp_attribute=rules.join_items(grp_items),
            agg_func=frame._agg_item(func, target),
            **frame._group_extras(self._by),
        )
        return frame._frame(query)
