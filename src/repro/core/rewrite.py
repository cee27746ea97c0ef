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
    ...) are exposed via :meth:`meta`.
    """

    def __init__(self, rules: dict[str, str], meta: dict[str, str]):
        self._rules = dict(rules)
        self._meta = dict(meta)

    # -- construction --------------------------------------------------
    @classmethod
    def from_file(cls, path: str | Path) -> "RewriteRules":
        """Load a language configuration file (paper Appendix B/C format)."""
        parser = configparser.RawConfigParser(
            delimiters=("=",), comment_prefixes=(";", "#"), strict=True
        )
        parser.optionxform = str  # rule keys are case-sensitive
        text = Path(path).read_text()
        parser.read_string(text, source=str(path))
        rules: dict[str, str] = {}
        meta: dict[str, str] = {}
        for section in parser.sections():
            for key, value in parser.items(section):
                # configparser joins continuation lines with '\n'; keep them —
                # generated queries are multi-line, like the paper's examples.
                target = meta if section == "META" else rules
                if key in target:
                    raise ValueError(
                        f"duplicate rewrite rule {key!r} in {path} "
                        f"(section [{section}])"
                    )
                target[key] = value.strip()
        return cls(rules, meta)

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
