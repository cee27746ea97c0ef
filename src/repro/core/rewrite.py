"""Language rewrite rules: the retargeting mechanism of PolyFrame (§III-C).

A :class:`RewriteRules` object is loaded from an INI-style *language
configuration file* in exactly the format the paper prints in Appendices B
(Cypher) and C (MongoDB): ``[SECTION]`` headers, ``key = template`` entries
(templates may continue over indented lines), and ``;`` comments. Templates
contain *rewrite variables* written ``$name`` (italicized in the paper's
Fig. 3); :meth:`RewriteRules.apply` substitutes caller-supplied values for
them in one pass, longest variable name first: ``$sort_attr`` is never
read as a ``$sort`` variable, substituted text is never re-scanned, and
MongoDB's ``{ "$min": "$$attribute" }`` keeps its literal leading ``$``
while ``$attribute`` is rewritten.

A config may be a *delta* of a bundled one: ``base = sparksql`` in its
``[META]`` reads ``sparksql.ini`` first, and the config lists only the rules
and ``[META]`` entries it changes (``sql.ini``, ``sqlpp.ini`` and
``cypher.ini`` are deltas of ``sparksql.ini``). The base resolves one level
deep: a base that names a base raises ``ValueError``. Since the paper prints
whole files, ``python -m repro.core.rewrite <language>`` prints a bundled
config resolved, in the same format.

Templates write no identifier quote: the core wraps each column name it
substitutes for ``$attribute``, ``$left_on`` or ``$right_on`` in the
``name_quote`` of ``[META]``, and each ``$alias`` in its ``alias_quote``
(:meth:`RewriteRules.quoted`), as ``string_quote`` and ``string_escape``
declare literals.

Users may override or add rules at runtime (*User-Defined Rewrites*,
paper §I contribution 4) via :meth:`RewriteRules.set`.
"""
from __future__ import annotations

import configparser
import math
import re
from pathlib import Path

#: Every rewrite-variable name that may legitimately appear in a template.
#: Used to (a) report which variables a template requires and (b) fail fast
#: when ``apply`` is called without one of them. Anything else that looks
#: like ``$word`` in a template (e.g. MongoDB's ``"$match"`` operators) is
#: plain query text, not a variable.
KNOWN_VARIABLES = frozenset(
    {
        "subquery",
        "namespace",
        "collection",
        "attribute",
        "attribute_alias",
        "alias",
        "left",
        "right",
        "statement",
        "num",
        "agg_func",
        "sort_attr",
        "grp_attribute",
        "grp_key",
        "grp_restore",
        "left_query",
        "right_query",
        "left_on",
        "right_on",
        "other_collection",
        "value",
    }
)


#: A control character: the ``backslash`` style writes it as ``\u00XX``,
#: which JSON, Spark SQL, SQL++ and Cypher all read back, so no literal
#: holds a raw line break.
_CONTROL_RE = re.compile(r"[\x00-\x1f]")


def _variable_re(names) -> re.Pattern:  # ``$name`` for any of ``names``, longest first
    return re.compile(r"\$(" + "|".join(sorted(names, key=len, reverse=True)) + ")")


class MissingRewriteVariable(KeyError):
    """A template required a rewrite variable the caller did not supply."""


class UnknownRewriteRule(KeyError):
    """The language configuration defines no rule under the requested key."""


def substitute(template: str, **variables: object) -> str:
    """Rewrite ``$name`` occurrences in ``template`` with ``variables``.

    Substitution is purely textual (the paper's model) and one pass, so
    substituted values are never re-scanned; a ``$`` right before a variable
    survives (MongoDB's ``"$$attribute"`` becomes ``"$<value>"``).
    """
    if not variables:
        return template
    return _variable_re(variables).sub(lambda m: str(variables[m[1]]), template)


def required_variables(template: str) -> frozenset[str]:
    """The subset of :data:`KNOWN_VARIABLES` referenced by ``template``."""
    return frozenset(_variable_re(KNOWN_VARIABLES).findall(template))


class RewriteRules:
    """A flat ``rule-name -> template`` mapping for one query language.

    Section headers in the config file are documentation (the paper groups
    rules into QUERIES / ATTRIBUTES / ARITHMETIC STATEMENTS / ... sections);
    rule keys are globally unique, so lookups are section-free. ``[META]``
    entries (``language``, ``std_kind``, ``string_quote``, ``string_escape``,
    ``name_quote``, ``alias_quote``) are exposed via :meth:`meta`.
    """

    def __init__(self, rules: dict[str, str], meta: dict[str, str]):
        self._rules = dict(rules)
        self._meta = dict(meta)

    # -- construction --------------------------------------------------
    @classmethod
    def from_file(cls, path: str | Path) -> "RewriteRules":
        """Load a language configuration file (paper Appendix B/C format),
        its base resolved."""
        sections = read_config(path)
        meta = sections.pop("META", {})
        return cls({k: v for rules in sections.values() for k, v in rules.items()}, meta)

    # -- inspection -----------------------------------------------------
    def has(self, key: str) -> bool:
        return key in self._rules

    def get(self, key: str) -> str:
        try:
            return self._rules[key]
        except KeyError:
            raise UnknownRewriteRule(key) from None

    def keys(self) -> list[str]:
        return sorted(self._rules)

    def meta(self, key: str) -> str | None:
        return self._meta.get(key)

    # -- mutation (User-Defined Rewrites) -------------------------------
    def set(self, key: str, template: str) -> None:
        """Add or override a rule at runtime (user-defined rewrite)."""
        self._rules[key] = template

    def copy(self) -> "RewriteRules":
        return RewriteRules(self._rules, self._meta)

    # -- the rewrite step ------------------------------------------------
    def apply(self, key: str, **variables: object) -> str:
        """Instantiate rule ``key``, substituting the given variables.

        Raises :class:`MissingRewriteVariable` if the template references a
        known rewrite variable that was not supplied — a misconfigured rule
        should fail at formation time, not as a backend syntax error.
        """
        template = self.get(key)
        missing = required_variables(template) - set(variables)
        if missing:
            raise MissingRewriteVariable(
                f"rule {key!r} requires variables {sorted(missing)}"
            )
        return substitute(template, **variables)

    # -- common composite helpers ----------------------------------------
    def join_items(self, items: list[str]) -> str:
        """Fold ``items`` with the language's ``attribute_separator`` rule."""
        if not items:
            raise ValueError("cannot join an empty attribute list")
        out = items[0]
        for item in items[1:]:
            out = self.apply("attribute_separator", left=out, right=item)
        return out

    def balanced(self, key: str, items: list[str]) -> str:
        """``items`` joined by the binary rule ``key`` as a balanced tree,
        the larger half on the left: ``n`` items nest ⌈log2 n⌉ deep, and
        two or three nest as a left fold does."""
        if len(items) == 1:
            return items[0]
        half = (len(items) + 1) // 2
        left, right = self.balanced(key, items[:half]), self.balanced(key, items[half:])
        return self.apply(key, left=left, right=right)

    def quoted(self, name: str, quote: str = "name_quote") -> str:
        """``name`` wrapped in the ``[META]`` entry ``quote`` (``name_quote``
        for a column name, ``alias_quote`` for an alias), that quote doubled
        inside it; bare where the language declares no such quote."""
        mark = self.meta(quote)
        return f"{mark}{name.replace(mark, mark * 2)}{mark}" if mark else name

    def literal(self, value: object) -> str:
        """Format a Python literal in this language's syntax."""
        if value is None:
            return self.get("null_literal")
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{value!r} has no literal: every backend would read it as a name")
        if isinstance(value, float) and "e" not in repr(value):
            return f"{value!r}E0"  # a double in every language; Spark reads 2.5 as DECIMAL
        if isinstance(value, (int, float)):
            return repr(value)
        if isinstance(value, str):
            quote, style = self.meta("string_quote"), self.meta("string_escape")
            if style == "doubled":  # standard SQL: 'it''s', a backslash is plain
                escaped = value.replace(quote, quote * 2)
            elif style == "backslash":  # 'it\'s', 'a\\b', a line break as '\u000A'
                escaped = value.replace("\\", "\\\\").replace(quote, "\\" + quote)
                escaped = _CONTROL_RE.sub(lambda m: f"\\u{ord(m[0]):04X}", escaped)
            else:
                raise ValueError(f"unknown string_escape {style!r} in [META]")
            if value.startswith("$") and self.has("dollar_str_literal"):
                # MongoDB reads a string that starts with `$` as a field path
                return self.apply("dollar_str_literal", value=escaped)
            return self.apply("str_literal", value=escaped)
        raise TypeError(f"unsupported literal type: {type(value).__name__}")


def _read(path: str | Path) -> dict[str, dict[str, str]]:
    """The sections of one config file, ``section -> {key: template}``.
    Raises ``ValueError`` for a rule key set in two sections."""
    parser = configparser.RawConfigParser(
        delimiters=("=",), comment_prefixes=(";", "#"), strict=True
    )
    parser.optionxform = str  # rule keys are case-sensitive
    parser.read_string(Path(path).read_text(), source=str(path))
    # configparser joins continuation lines with '\n'; keep them —
    # generated queries are multi-line, like the paper's examples.
    sections = {s: {k: v.strip() for k, v in parser.items(s)} for s in parser.sections()}
    keys = [key for s, rules in sections.items() if s != "META" for key in rules]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ValueError(f"duplicate rewrite rule in {path}: {repeated}")
    return sections


def read_config(path: str | Path) -> dict[str, dict[str, str]]:
    """The sections of the config at ``path``, its ``base`` resolved: the
    base's sections, each key the delta sets replacing the base's in place
    and any other added under the delta's section. Raises
    ``FileNotFoundError`` for an unknown base and ``ValueError`` for a base
    that names a base."""
    delta = _read(path)
    base = delta.get("META", {}).pop("base", None)
    if base is None:
        return delta
    sections = _read(language_config_path(base))
    if "base" in sections.get("META", {}):
        raise ValueError(f"{path} names base {base!r}, which names a base itself")
    home = {key: s for s, rules in sections.items() if s != "META" for key in rules}
    for section, entries in delta.items():
        for key, value in entries.items():
            target = section if section == "META" else home.get(key, section)
            sections.setdefault(target, {})[key] = value
    return sections


def language_config_path(language: str) -> Path:
    """Path of the bundled config file for ``language`` (e.g. ``sparksql``)."""
    return Path(__file__).resolve().parent.parent / "languages" / f"{language}.ini"


def load_language(language: str) -> RewriteRules:
    """Load one of the bundled language configurations by name."""
    path = language_config_path(language)
    if not path.exists():
        raise FileNotFoundError(
            f"no bundled rewrite rules for language {language!r} at {path}"
        )
    return RewriteRules.from_file(path)


if __name__ == "__main__":
    import sys

    # a bundled config resolved, in its own format: a template continues
    # over lines indented by one space
    for section, entries in read_config(language_config_path(sys.argv[1])).items():
        print(f"[{section}]")
        for key, value in entries.items():
            print(f"{key} = " + value.replace("\n", "\n "))
        print()
