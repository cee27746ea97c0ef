"""PolyFrame: Pandas-like dataframes via incremental query formation.

This is the paper's core contribution (§III). A :class:`PolyFrame` holds no
data — only the query text accumulated so far (``self.query``) plus the
connector that will eventually run it. Every Pandas-style operation is
either a

* **transformation** — applies a rewrite rule to the current query and
  returns a *new* PolyFrame or column (``pf['a']``, ``pf[pf['a'] == 1]``,
  ``groupby``, ``sort_values``, ``merge``, arithmetic/comparison on
  columns, ``get_dummies``) — no query is executed, no intermediate
  result materializes; or an
* **action** — finalizes the query (e.g. appends the language's LIMIT
  rule) and ships it through the connector (``head``, ``toPandas``,
  ``len(pf)``, scalar aggregates, ``describe``).

A frame and a column share one private base class, which holds the
dataset, the connector, ``query`` and the actions. A
:class:`PolyFrameColumn` is not a frame: it holds the frame it came from
and has none of the frame's transformations, so ``merge``, ``groupby``,
``sort_values`` and a name or list key raise at formation.

Column expressions mirror Table I of the paper. Every column operation is
one derivation step (:meth:`PolyFrameColumn._derive`) with one rule. The
new column's ``expr`` composes over the column's ``frame``, so ``pf[pf['lang']
== 'en']`` filters that frame (Table I footnote 1), also after ``map`` or
arithmetic. Its own query wraps the column's query and reads it by name
(Table I row 3), unless the op reads a second column: then it composes
over the frame, where both operands are in scope. ``series[predicate]``
is the column taken from ``frame[predicate]``, as pandas filters a
Series. Every expression rule yields a complete expression of its language
(a Mongo operator nests as JSON), so no derivation needs a
language-specific step.
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

#: ``other`` of a unary derivation
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


class _Lazy:
    """A query over one dataset of one connector, and the actions that run
    it: the part a frame and a column share."""

    def __init__(self, namespace: str, collection: str, connector: DBConnector, query: str):
        self.namespace = namespace
        self.collection = collection
        self.connector = connector
        self.query = query

    @property
    def rules(self) -> RewriteRules:
        """The connector's rules, user-defined rewrites included."""
        return self.connector.rules

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _execute(self, query: str) -> pd.DataFrame:
        return self.connector.execute(query, self.namespace, self.collection)

    def _finalized(self, query: str) -> str:
        """Wrap a non-terminal query with the language's return-all rule."""
        return self.rules.apply("return_all", subquery=query)

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
    # actions
    # ------------------------------------------------------------------
    def head(self, n: int = 5) -> pd.DataFrame:
        """Return the first ``n`` rows: the language's LIMIT rule appended
        to the return-all rule.

        Raises ``TypeError`` if ``n`` is not an integer, as pandas does, and
        ``ValueError`` if it is negative: pandas then drops the last rows,
        which a LIMIT cannot form."""
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"head() takes no negative count, got {n}")
        query = self.rules.apply("limit", subquery=self._finalized(self.query), num=n)
        return self._execute(query)

    def toPandas(self) -> pd.DataFrame:
        """Materialize the full result (the return-all rule)."""
        return self._execute(self._finalized(self.query))

    collect = toPandas

    def __len__(self) -> int:
        result = self._execute(self.rules.apply("q3", subquery=self.query))
        return int(result.iloc[0, 0])

    def __bool__(self) -> bool:
        # Without this, bool() falls back to __len__ and runs a COUNT, and
        # `1 < pf["k"] < 3` silently keeps only its last comparison.
        raise ValueError(
            f"The truth value of a {type(self).__name__} is ambiguous. "
            "Combine conditions with & and |, not `and`, `or` or a chained comparison."
        )

    def _numeric_columns(self) -> list[str]:
        """The columns of this query's result that pandas describes: those
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


class PolyFrame(_Lazy):
    """A lazy, query-backed dataframe over one backend dataset."""

    def __init__(
        self, namespace: str, collection: str, connector: DBConnector, _query: str | None = None
    ):
        if _query is None:
            # Frame creation only verifies the dataset and forms q1 — it
            # never loads data (the paper's "DataFrame creation time" for
            # PolyFrame is query-formation time only).
            connector.initialize(namespace, collection)
            _query = connector.rules.apply("q1", namespace=namespace, collection=collection)
        super().__init__(namespace, collection, connector, _query)

    def _frame(self, query: str) -> "PolyFrame":
        return PolyFrame(self.namespace, self.collection, self.connector, _query=query)

    def _check_frame(self, column: "PolyFrameColumn", derived: bool = False) -> None:
        """Raise ``ValueError`` if ``column`` reads another dataset or
        connector than this frame or, if ``derived``, derives from another
        frame. A Mongo query names no dataset, and two connectors may hold
        datasets of one name, so both are compared too."""
        if (
            (column.namespace, column.collection) != (self.namespace, self.collection)
            or column.connector is not self.connector
            or (derived and column.frame.query != self.query)
        ):
            raise ValueError(f"cannot combine different frames (column {column.name!r})")

    def _group_extras(self, attrs: list[str]) -> dict[str, str]:
        """grp_key / grp_restore variables for languages that define them
        (MongoDB's $group needs the keys packed into _id and restored)."""
        return {
            rule: self.rules.join_items([self.rules.apply(rule, attribute=a) for a in attrs])
            for rule in ("grp_key", "grp_restore")
            if self.rules.has(rule)
        }

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
            return PolyFrameColumn(self, query, expr, key)
        if isinstance(key, (list, tuple)):
            items = self.rules.join_items([self.rules.apply("proj_attr", attribute=a) for a in key])
            return self._frame(self.rules.apply("q2", subquery=self.query, attribute_alias=items))
        raise TypeError(f"unsupported key type: {type(key).__name__}")

    def sort_values(self, by: str, ascending: bool = True) -> "PolyFrame":
        if not isinstance(by, str):
            raise TypeError("sort_values supports a single attribute name")
        # the attribute rule writes the direction, q4 the ORDER BY
        rule = "sort_asc_attr" if ascending else "sort_desc_attr"
        attr = self.rules.apply(rule, attribute=by)
        return self._frame(self.rules.apply("q4", subquery=self.query, sort_attr=attr))

    def groupby(self, by: str | list[str]) -> "PolyFrameGroupBy":
        """Raises ``TypeError`` unless ``by`` is a column name or a list of
        names, and ``ValueError`` for an empty list, as pandas does."""
        attrs = [by] if isinstance(by, str) else by
        if not isinstance(attrs, (list, tuple)) or not all(isinstance(a, str) for a in attrs):
            raise TypeError("groupby takes a column name or a list of column names")
        if not attrs:
            raise ValueError("No group keys passed!")
        return PolyFrameGroupBy(self, list(attrs))

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


class PolyFrameColumn(_Lazy):
    """A single (possibly computed) column of a PolyFrame.

    Holds ``frame`` — the frame it came from, which every column derived
    from it keeps; ``expr`` — the language-specific fragment denoting this
    column inside a statement over ``frame``; ``name`` — its output alias;
    and ``rule`` — the rule that formed ``expr`` (``None`` for a dataset
    attribute). ``query`` is the column's own value query.

    A column has the actions of a frame but none of its transformations:
    its only key is a boolean column of its dataset (``series[predicate]``).
    """

    def __init__(self, frame: PolyFrame, query: str, expr: str, name: str, rule: str | None = None):
        super().__init__(frame.namespace, frame.collection, frame.connector, query)
        self.frame = frame
        self.expr = expr
        self.name = name
        self.rule = rule

    def __getitem__(self, key: "PolyFrameColumn") -> "PolyFrameColumn":
        """This column of ``frame[key]``, as pandas filters a Series by a
        boolean one. Raises ``TypeError`` for any key but a column, and
        ``ValueError`` for a column of another dataset or connector."""
        if not isinstance(key, PolyFrameColumn):
            raise TypeError(f"a column takes a boolean column as key, not {type(key).__name__}")
        rows = self.frame[key]
        if self.rule is None:
            return rows[self.name]
        query = self.rules.apply("q7", subquery=rows.query, statement=self.expr, alias=self.name)
        return PolyFrameColumn(rows, query, self.expr, self.name, self.rule)

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
        ``TypeError`` for ``-`` or ``/`` of two boolean operands, as pandas,
        and for a ``None`` operand: pandas gives a constant or raises, and
        no rule forms that constant. ``/`` or ``%`` by a literal zero raises
        ``ZeroDivisionError``: pandas gives inf or NaN, and no backend does.
        """
        if other is None:
            raise TypeError(f"{rule!r} of None has no rule; test for NULL with isna() or notna()")
        if isinstance(other, PolyFrameColumn):
            self.frame._check_frame(other, derived=True)
            other_boolean = other.rule in _BOOLEANS
        else:
            other = _native(other)
            other_boolean = isinstance(other, bool)
            if rule in ("div", "mod") and other == 0:
                raise ZeroDivisionError(f"{rule} by a literal zero: no rule forms pandas' inf or NaN")
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
            subquery, statement = self.frame.query, expr
        else:
            ref = self.rules.apply("single_attribute", attribute=self.name)
            subquery, statement = self.query, form(ref)
        query = self.rules.apply("q7", subquery=subquery, statement=statement, alias=name)
        return PolyFrameColumn(self.frame, query, expr, name, rule)

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
        an action fetches the distinct values as the keys of a group-by
        (q9, projected by q2) of a frame of this column's values, then the
        projection is composed from comparison + type-conversion + alias
        rewrite rules. Both wrap this column's own query and read it by
        name, like any op on this column alone. Returns a lazy PolyFrame
        (the projection itself is a transformation).
        """
        values_frame = self.frame._frame(self.query)
        values = values_frame.groupby(self.name).agg("count")[[self.name]].toPandas().iloc[:, 0]
        distinct = sorted(
            {_native(v) for v in values.dropna().tolist()},
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
        return values_frame._frame(query)


class PolyFrameGroupBy:
    """Deferred ``groupby`` — resolves to a q9 group-by query on ``agg``."""

    def __init__(self, frame: PolyFrame, by: list[str], target: str | None = None):
        self._frame = frame
        self._by = by
        self._target = target

    def __getitem__(self, column: str) -> "PolyFrameGroupBy":
        """Select the one column to aggregate; raises ``TypeError`` for any
        key but a column name."""
        if not isinstance(column, str):
            raise TypeError(f"select one column by name to aggregate, got {column!r}")
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
