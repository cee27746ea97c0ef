"""PolyFrame: Pandas-like dataframes via incremental query formation.

This is the paper's core contribution (§III). A :class:`PolyFrame` holds no
data — only its last formation step (``self.step``) plus the connector that
will eventually run it. A step is a rewrite rule and its inputs, and an
input that is itself a query is the parent's step, not its text: the
paper's ``Q_{i+1}`` wraps ``Q_i`` (§III-B). ``query`` forms the text from
the steps with the connector's query rules each time it is read; an
expression (a predicate, a sort key) is formed when its operation is built
and held in the step as text. Every Pandas-style operation is either a

* **transformation** — builds a step and returns a *new* PolyFrame or
  column (``pf['a']``, ``pf[pf['a'] == 1]``, ``groupby``, ``sort_values``,
  ``merge``, arithmetic/comparison on columns, ``get_dummies``) — it
  applies no query rule (q1–q10), no query is executed, no intermediate
  result materializes; or an
* **action** — reads ``query`` once, finalizes it (e.g. appends the
  language's LIMIT rule) and ships it through the connector (``head``,
  ``toPandas``, ``len(pf)``, scalar aggregates, ``describe``).

A frame and a column share one private base class, which holds the
dataset, the connector, the step and the actions over its ``query``. A
:class:`PolyFrameColumn` is not a frame: it holds the frame it came from
and has none of the frame's transformations, so ``merge``, ``groupby``,
``sort_values`` and a name or list key raise at formation. Two frames
compare by their steps, by value.

Column expressions mirror Table I of the paper. A column is its frame, its
``expr``, its name and the rule that formed ``expr``; its step, built with
it, is its value query: q2 of the attribute over the frame's step for a
dataset attribute, else q7 of ``expr``. A filter key reads only ``expr``,
so it forms no value query. Every column operation is one derivation
(:meth:`PolyFrameColumn._derive`) with one rule: the new column's ``expr``
composes over the column's ``frame``, and its step is q7 of that ``expr``
over the frame's step, so a chain of any length is one q7 over its frame.
``pf[pf['lang'] == 'en']`` filters that frame (Table I footnote 1), also
after ``map`` or arithmetic; a filter of a filter is one q6 that holds
its predicate and the parent's, joined by the ``and`` rule into a balanced
tree when formed, so a chain of filters nests one step. An op on a
dataset attribute alone keeps Table I row 3's form: its q7 wraps the
attribute's own q2 step, which ``expr`` reads by name.
``series[predicate]`` is the column taken from ``frame[predicate]``, as
pandas filters a Series. Every expression rule yields a complete
expression of its language (a Mongo operator nests as JSON), so no
derivation needs a language-specific step. A column name or alias reaches
a rule already in the language's quote (``name_quote``, ``alias_quote``:
:meth:`RewriteRules.quoted`).
"""
from __future__ import annotations

import copy
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

#: The most steps one query nests. Formation recurses once a step, and
#: Python's default limit would stop it at about 496; no backend parses
#: such a text: DuckDB parsed 160 nested filters but not 170, and Spark,
#: which runs the other four languages, 75 but not 100. A chain of
#: filters is one step (``PolyFrame.__getitem__``); the other steps nest.
_DEEPEST = 256


class _Step(tuple):
    """One formation step, ``(rule, *inputs)``: a rewrite rule key and the
    (variable, value) pairs it is applied to. A value that is a step (the
    parent query, or a column's ``proj_attr``) is formed first, so a step
    compares by value and forms its text only when read, with the rules of
    that time. A tuple of texts is a filter's fused predicates, joined when
    read by the ``and`` rule into one balanced tree, so a chain of ``n``
    filters nests ⌈log2 n⌉ deep. Every other value is text already formed
    when the step was built, by the expression rules of that time."""

    def __new__(cls, rule: str, **inputs: object) -> "_Step":
        return super().__new__(cls, (rule, *inputs.items()))

    def form(self, rules: RewriteRules, depth: int = 1) -> str:
        """This step's text. Raises ``ValueError`` if it nests more than
        ``_DEEPEST`` steps."""
        if depth > _DEEPEST:
            raise ValueError(f"a query nests at most {_DEEPEST} steps; no backend parses a deeper one")
        rule, *inputs = self

        def formed(value: object) -> object:
            if isinstance(value, _Step):
                return value.form(rules, depth + 1)
            return rules.balanced("and", list(value)) if isinstance(value, tuple) else value

        return rules.apply(rule, **{k: formed(v) for k, v in inputs})


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
    """A query over one dataset of one connector, held as its last step, and
    the actions that run it: the part a frame and a column share."""

    def __init__(self, namespace: str, collection: str, connector: DBConnector, step: _Step):
        self.namespace = namespace
        self.collection = collection
        self.connector = connector
        self.step = step

    @property
    def rules(self) -> RewriteRules:
        """The connector's rules, user-defined rewrites included."""
        return self.connector.rules

    @property
    def query(self) -> str:
        """The query text, formed from ``step`` when read; an action reads
        it once."""
        return self.step.form(self.rules)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _execute(self, query: str) -> pd.DataFrame:
        return self.connector.execute(query, self.namespace, self.collection)

    def _finalized(self, query: str, n: int | None = None) -> str:
        """Wrap a non-terminal query with the language's return-all rule,
        and with its LIMIT rule for the first ``n`` rows."""
        query = self.rules.apply("return_all", subquery=query)
        return query if n is None else self.rules.apply("limit", subquery=query, num=n)

    def _attribute(self, rule: str, name: str) -> str:
        """Rule ``rule`` of the column ``name``, in the language's
        ``name_quote``."""
        return self.rules.apply(rule, attribute=self.rules.quoted(name))

    def _aliased(self, expr: str, alias: str) -> str:
        """``expr`` as the output column ``alias``, in the language's
        ``alias_quote`` (the ``attribute_alias`` rule)."""
        alias = self.rules.quoted(alias, "alias_quote")
        return self.rules.apply("attribute_alias", alias=alias, attribute=expr)

    def _agg_item(self, func: str, attribute: str) -> str:
        """One aliased aggregate output, e.g. ``MAX(t.four) AS max_four``."""
        rule = _AGG_RULES.get(func)
        if rule is None:
            raise ValueError(
                f"unsupported aggregate {func!r}; choose from {sorted(_AGG_RULES)}"
            )
        return self._aliased(self._attribute(rule, attribute), f"{rule}_{attribute}")

    def _aggregate_row(self, query: str, items: list[str]) -> pd.Series:
        """Run q8 of the aggregate ``items`` over ``query``: its one row."""
        query = self.rules.apply("q8", subquery=query, agg_func=self.rules.join_items(items))
        return self._execute(self._finalized(query)).iloc[0]

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
        return self._execute(self._finalized(self.query, n))

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

    def _numeric_columns(self, query: str) -> list[str]:
        """The columns of ``query``'s result that pandas describes: those
        of a numeric dtype other than bool, read from its first row."""
        dtypes = self._execute(self._finalized(query, 1)).dtypes
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
        query = self.query
        if columns is None:
            columns = self._numeric_columns(query)
        stats = ("count", "avg", "std", "min", "max")
        items = [self._agg_item(f, c) for c in columns for f in stats]
        row = self._aggregate_row(query, items)
        return pd.DataFrame(
            {c: [row[f"{f}_{c}"] for f in stats] for c in columns},
            index=list(stats),
        )


class PolyFrame(_Lazy):
    """A lazy, query-backed dataframe over one backend dataset."""

    def __init__(self, namespace: str, collection: str, connector: DBConnector):
        # Frame creation only verifies the dataset and builds the q1 step —
        # it never loads data or forms text (the paper's "DataFrame creation
        # time" for PolyFrame).
        connector.initialize(namespace, collection)
        step = _Step("q1", namespace=namespace, collection=collection)
        super().__init__(namespace, collection, connector, step)

    def _frame(self, step: _Step) -> "PolyFrame":
        """A frame of this dataset and connector whose last step is ``step``."""
        frame = copy.copy(self)
        frame.step = step
        return frame

    def _check_frame(self, column: "PolyFrameColumn", derived: bool = False) -> None:
        """Raise ``ValueError`` if ``column`` reads another dataset or
        connector than this frame or, if ``derived``, derives from another
        frame, by value of their steps or, where those differ, of their
        texts: ``pf[p1][p2]`` holds two predicates and ``pf[p1 & p2]`` one,
        and both form one query. A Mongo query names no dataset, and two
        connectors may hold datasets of one name, so both are compared too."""
        if (
            (column.namespace, column.collection) != (self.namespace, self.collection)
            or column.connector is not self.connector
            or (derived and column.frame.step != self.step and column.frame.query != self.query)
        ):
            raise ValueError(f"cannot combine different frames (column {column.name!r})")

    def _group_extras(self, attrs: list[str]) -> dict[str, str]:
        """grp_key / grp_restore variables for languages that define them
        (MongoDB's $group needs the keys packed into _id and restored)."""
        return {
            rule: self.rules.join_items([self._attribute(rule, a) for a in attrs])
            for rule in ("grp_key", "grp_restore")
            if self.rules.has(rule)
        }

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def __getitem__(self, key):
        if isinstance(key, PolyFrameColumn):
            # selection: pf[bool_col] — composed over THIS frame's step,
            # with the column's raw predicate (Table I footnote 1); a filter
            # of a filter is one q6 that holds the predicates of both
            self._check_frame(key)
            subquery, predicates = self.step, (key.expr,)
            if self.step[0] == "q6":
                inputs = dict(self.step[1:])
                subquery, predicates = inputs["subquery"], inputs["statement"] + predicates
            return self._frame(_Step("q6", subquery=subquery, statement=predicates))
        if isinstance(key, str):
            return PolyFrameColumn(self, self._attribute("single_attribute", key), key)
        if isinstance(key, (list, tuple)):
            items = self.rules.join_items([self._attribute("proj_attr", a) for a in key])
            return self._frame(_Step("q2", subquery=self.step, attribute_alias=items))
        raise TypeError(f"unsupported key type: {type(key).__name__}")

    def sort_values(self, by: str, ascending: bool = True) -> "PolyFrame":
        """Sort by one column. ``ascending`` is a bool, 0 or 1, or a list or
        tuple of one of them, as pandas takes it for one column. Anything
        else raises ``ValueError``, as pandas does for a non-bool or a list
        of another length."""
        if not isinstance(by, str):
            raise TypeError("sort_values supports a single attribute name")
        one = ascending[0] if isinstance(ascending, (list, tuple)) and len(ascending) == 1 else ascending
        if type(_native(one)) not in (bool, int) or one not in (0, 1):
            raise ValueError(f"ascending takes a bool, or a list of one for one column, not {ascending!r}")
        # the attribute rule writes the direction, q4 the ORDER BY
        attr = self._attribute("sort_asc_attr" if one else "sort_desc_attr", by)
        return self._frame(_Step("q4", subquery=self.step, sort_attr=attr))

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
        reads both sides from one backend; and for ``on`` with ``left_on``
        or ``right_on``, as pandas does."""
        if other.connector is not self.connector:
            raise ValueError("cannot merge frames of different connectors")
        if how != "inner":
            raise ValueError("only inner joins are supported (paper's expr. 12)")
        if on is not None and (left_on, right_on) != (None, None):
            raise ValueError('pass "on" or "left_on" and "right_on", not a combination of both')
        left_on, right_on = (left_on, right_on) if on is None else (on, on)
        if left_on is None or right_on is None:
            raise ValueError("merge requires `on` or both `left_on`/`right_on`")
        return self._frame(_Step(
            "q10",
            left_query=self.step,
            right_query=other.step,
            left_on=self.rules.quoted(left_on),
            right_on=self.rules.quoted(right_on),
            other_collection=other.collection,
        ))


class PolyFrameColumn(_Lazy):
    """A single (possibly computed) column of a PolyFrame.

    Holds ``frame`` — the frame it came from, which every column derived
    from it keeps; ``expr`` — the language-specific fragment denoting this
    column inside a statement over ``frame``; ``name`` — its output alias;
    ``rule`` — the rule that formed ``expr`` (``None`` for a dataset
    attribute); and ``step`` — its value query, built with it: q2 of the
    attribute over the frame's step for a dataset attribute, otherwise q7
    of ``expr`` over ``over``, the step of the dataset attribute an op on
    that attribute alone wraps (Table I row 3), or over the frame's step.

    A column has the actions of a frame but none of its transformations:
    its only key is a boolean column of its dataset (``series[predicate]``).
    """

    def __init__(self, frame: PolyFrame, expr: str, name: str, rule: str | None = None,
                 over: _Step | None = None):
        if rule is None:
            attribute = _Step("proj_attr", attribute=frame.rules.quoted(name))
            step = _Step("q2", subquery=frame.step, attribute_alias=attribute)
        else:
            alias = frame.rules.quoted(name, "alias_quote")
            step = _Step("q7", subquery=over or frame.step, statement=expr, alias=alias)
        super().__init__(frame.namespace, frame.collection, frame.connector, step)
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
        return PolyFrameColumn(self.frame[key], self.expr, self.name, self.rule)

    # -- the derivation step -------------------------------------------
    def _derive(
        self, rule: str, other: object = _UNARY, name: str = "val"
    ) -> "PolyFrameColumn":
        """Derive a column by applying rewrite rule ``rule`` to this column
        and, for a binary rule, to ``other`` (a column or a literal); the
        result is named ``name``. Applies the module's one rule: ``expr``
        over the frame; the value query is a q7 step of ``expr`` over the
        frame's step, or over the attribute's own q2 step for an op on a
        dataset attribute alone (``over``, Table I row 3).

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

        def operand(column: PolyFrameColumn) -> str:
            if rule in _ARITHMETIC and column.rule in _BOOLEANS:
                return self.rules.apply("to_int", statement=column.expr)
            if rule in _COMPARISONS and column.rule in _COMPARISONS:
                return self.rules.apply("group", statement=column.expr)
            return column.expr

        variables = {}
        if isinstance(other, PolyFrameColumn):
            variables["right"] = operand(other)
        elif other is not _UNARY:
            # under arithmetic a boolean literal is its 0/1, as in pandas
            value = int(other) if rule in _ARITHMETIC and other_boolean else other
            variables["right"] = self.rules.literal(value)

        left = operand(self)
        expr = self.rules.apply(rule, left=left, statement=left, **variables)
        # Table I row 3: an op on a dataset attribute alone wraps its q2,
        # where ``expr`` reads the attribute by name
        alone = self.rule is None and not isinstance(other, PolyFrameColumn)
        return PolyFrameColumn(self.frame, expr, name, rule, over=self.step if alone else None)

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
        return _native(self._aggregate_row(self.query, [self._agg_item(func, self.name)]).iloc[0])

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
        projection (q2) aliases one column of that frame per value,
        ``(values_frame[name] == v).astype(int)``, so it is formed by the
        same comparison and cast derivations as any column. Both wrap this
        column's value step and read it by name. Returns a lazy PolyFrame
        (the projection itself is a transformation).
        """
        values_frame = self.frame._frame(self.step)
        values = values_frame.groupby(self.name).agg("count")[[self.name]].toPandas().iloc[:, 0]
        distinct = sorted(
            {_native(v) for v in values.dropna().tolist()},
            key=lambda v: (str(type(v)), v),
        )
        column = values_frame[self.name]
        items = []
        for v in distinct:
            items.append(self._aliased((column == v).astype(int).expr, f"{self.name}_{v}"))
        step = _Step("q2", subquery=values_frame.step, attribute_alias=self.rules.join_items(items))
        return values_frame._frame(step)


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
        return frame._frame(_Step(
            "q9",
            subquery=frame.step,
            grp_attribute=rules.join_items([frame._attribute("proj_attr", a) for a in self._by]),
            agg_func=frame._agg_item(func, target),
            **frame._group_extras(self._by),
        ))
