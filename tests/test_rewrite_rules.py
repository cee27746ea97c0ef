"""Unit tests for the rewrite-rule engine and the five language configs
(paper §III-C, Fig. 3; Appendix B/C config format).

No SparkSession needed — query *formation* is pure string rewriting.
"""
from __future__ import annotations

import json

import pytest

from repro.core.rewrite import (
    KNOWN_VARIABLES,
    MissingRewriteVariable,
    RewriteRules,
    UnknownRewriteRule,
    language_config_path,
    load_language,
    required_variables,
    substitute,
)

LANGUAGES = ("sparksql", "sql", "sqlpp", "mongo", "cypher")

#: every rule key each language configuration must define (q5 and q11 are
#: retired: q4 sorts both ways, and get_dummies reads its values through q9)
REQUIRED_KEYS = (
    [f"q{i}" for i in (1, 2, 3, 4, 6, 7, 8, 9, 10)]
    + [
        "single_attribute",
        "proj_attr",
        "attribute_alias",
        "sort_asc_attr",
        "sort_desc_attr",
        "attribute_separator",
        "add",
        "sub",
        "mul",
        "div",
        "mod",
        "and",
        "or",
        "not",
        "eq",
        "ne",
        "gt",
        "lt",
        "ge",
        "le",
        "is_missing",
        "not_missing",
        "group",
        "to_str",
        "to_int",
        "limit",
        "return_all",
        "min",
        "max",
        "avg",
        "std",
        "count",
        "upper",
        "lower",
        "abs",
        "str_literal",
    ]
)

#: the rules a config defines beyond REQUIRED_KEYS: ``literal(None)`` reads
#: ``null_literal``; MongoDB's ``$group`` packs its keys into ``_id``
#: (``grp_key``, ``grp_restore``) and reads a string that starts with ``$``
#: as a field path (``dollar_str_literal``); and the Mongo stand-in compiles
#: MongoDB's truncating ``$mod`` with Spark SQL's ``trunc_mod``
EXTRA_KEYS = {"null_literal"}
LANGUAGE_EXTRA_KEYS = {
    "mongo": {"grp_key", "grp_restore", "dollar_str_literal"},
    "sparksql": {"trunc_mod"},
}


# ---------------------------------------------------------------------------
# substitution mechanics
# ---------------------------------------------------------------------------
class TestSubstitute:
    def test_simple(self):
        assert substitute("SELECT $attribute", attribute="age") == "SELECT age"

    def test_multiple_occurrences(self):
        assert substitute("$left + $left", left="x") == "x + x"

    def test_longest_name_first(self):
        # $sort_desc_attr must not be clobbered by a shorter variable name
        out = substitute(
            "ORDER BY $sort_desc_attr", sort_desc_attr="t.a", sort="BAD"
        )
        assert out == "ORDER BY t.a"

    def test_mongo_double_dollar_keeps_literal_dollar(self):
        # the paper's '"$min": "$$attribute"' idiom
        out = substitute('"$min": "$$attribute"', attribute="age")
        assert out == '"$min": "$age"'

    def test_untouched_operators(self):
        # "$match" is query text, not a rewrite variable
        out = substitute('{ "$match": { $statement } }', statement="X")
        assert out == '{ "$match": { X } }'

    def test_non_string_values(self):
        assert substitute("LIMIT $num", num=10) == "LIMIT 10"

    def test_required_variables_extraction(self):
        req = required_variables("SELECT $agg_func FROM ($subquery) t")
        assert req == {"agg_func", "subquery"}

    def test_required_variables_adjacent(self):
        # sparksql q1: `$namespace_$collection`, two variables in one name
        q1 = load_language("sparksql").get("q1")
        assert required_variables(q1) == {"namespace", "collection"}

    def test_required_variables_ignores_non_variables(self):
        assert required_variables('{ "$match": {} }') == set()

    def test_known_variables_cover_configs(self):
        # every variable referenced by any bundled rule must be known,
        # otherwise apply() cannot guard it
        for lang in LANGUAGES:
            rules = load_language(lang)
            for key in rules.keys():
                assert required_variables(rules.get(key)) <= KNOWN_VARIABLES


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("lang", LANGUAGES)
class TestLanguageConfigs:
    def test_loads(self, lang):
        rules = load_language(lang)
        assert rules.meta("language") == lang

    def test_all_required_keys_present(self, lang):
        rules = load_language(lang)
        missing = [k for k in REQUIRED_KEYS if not rules.has(k)]
        assert not missing, f"{lang} config missing rules: {missing}"

    def test_defines_only_the_contract(self, lang):
        # a rule no method applies, such as a retired one, fails here
        extras = EXTRA_KEYS | LANGUAGE_EXTRA_KEYS.get(lang, set())
        assert set(load_language(lang).keys()) == set(REQUIRED_KEYS) | extras

    def test_config_file_exists(self, lang):
        assert language_config_path(lang).exists()

    def test_std_kind_declared(self, lang):
        # sample vs population std differs across the paper's languages
        assert load_language(lang).meta("std_kind") in ("sample", "population")

    def test_q1_scans_collection(self, lang):
        rules = load_language(lang)
        q1 = rules.apply("q1", namespace="Test", collection="Users")
        if lang == "mongo":
            # the paper: Mongo's q1 has no variables — pipeline construction
            # (and thus the collection) is handled by the connector (§III-D)
            assert q1 == '{ "$match": {} }'
        else:
            assert "Users" in q1
            assert "$" not in q1


# ---------------------------------------------------------------------------
# apply() semantics
# ---------------------------------------------------------------------------
class TestApply:
    def test_missing_variable_raises(self):
        rules = load_language("sqlpp")
        with pytest.raises(MissingRewriteVariable):
            rules.apply("q2", subquery="X")  # attribute_alias missing

    def test_unknown_rule_raises(self):
        with pytest.raises(UnknownRewriteRule):
            load_language("sql").apply("nonexistent_rule")

    def test_extra_variables_ignored(self):
        rules = load_language("sqlpp")
        out = rules.apply("q3", subquery="X", attribute="ignored")
        assert out == "SELECT VALUE COUNT(*) FROM (X) t"

    def test_unknown_language_raises(self):
        with pytest.raises(FileNotFoundError):
            load_language("nosuchlang")

    def test_duplicate_rule_in_file_raises(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[A]\nq1 = x\n[B]\nq1 = y\n")
        with pytest.raises(ValueError, match="duplicate"):
            RewriteRules.from_file(bad)

    def test_multiline_template_preserved(self):
        # the paper's configs continue templates over indented lines
        join = load_language("cypher").get("q10")
        assert join.splitlines() == [
            "$left_query",
            "MATCH (r: $other_collection)",
            "WHERE t.$left_on = r.$right_on",
            "WITH t{.*, 'r': r}",
        ]


# ---------------------------------------------------------------------------
# user-defined rewrites (paper §I contribution 4)
# ---------------------------------------------------------------------------
class TestUserDefinedRewrites:
    def test_set_overrides(self):
        rules = load_language("sql").copy()
        rules.set("q3", "SELECT COUNT(1) AS n FROM ($subquery) x")
        assert rules.apply("q3", subquery="Q") == "SELECT COUNT(1) AS n FROM (Q) x"

    def test_set_adds_new_rule(self):
        rules = load_language("sql").copy()
        rules.set("sample", "SELECT * FROM ($subquery) t USING SAMPLE $num")
        assert rules.apply("sample", subquery="Q", num=3).endswith("USING SAMPLE 3")

    def test_copy_is_independent(self):
        base = load_language("sql")
        derived = base.copy()
        derived.set("q3", "CHANGED")
        assert base.get("q3") != "CHANGED"

    def test_custom_config_file(self, tmp_path):
        cfg = tmp_path / "mini.ini"
        cfg.write_text(
            "[META]\nlanguage = mini\n[QUERIES]\nq1 = scan $collection\n"
        )
        rules = RewriteRules.from_file(cfg)
        assert rules.apply("q1", collection="C") == "scan C"
        assert rules.meta("language") == "mini"


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------
class TestLiterals:
    @pytest.mark.parametrize("lang,expected", [("sql", "'en'"), ("mongo", '"en"')])
    def test_string_quote_style(self, lang, expected):
        assert load_language(lang).literal("en") == expected

    def test_numbers(self):
        rules = load_language("sql")
        assert rules.literal(5) == "5"
        assert rules.literal(2.5) == "2.5E0"

    @pytest.mark.parametrize("language", ["sparksql", "sql", "sqlpp", "mongo", "cypher"])
    def test_non_finite_floats_are_refused(self, language):
        # `inf` or `infE0` would be read as a column name by every backend
        rules = load_language(language)
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="no literal"):
                rules.literal(value)

    def test_null(self):
        assert load_language("sql").literal(None) == "NULL"
        assert load_language("mongo").literal(None) == "null"

    def test_bool(self):
        assert load_language("mongo").literal(True) == "true"

    def test_quote_escaping(self):
        # standard SQL doubles the quote; Spark SQL escapes with a backslash
        assert load_language("sql").literal("O'Brien") == "'O''Brien'"
        assert load_language("sql").literal("a\\b") == "'a\\b'"
        assert load_language("sparksql").literal("O'Brien") == "'O\\'Brien'"
        assert load_language("sparksql").literal("a\\b") == "'a\\\\b'"

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            load_language("sql").literal(object())


# ---------------------------------------------------------------------------
# composition helpers
# ---------------------------------------------------------------------------
class TestComposition:
    def test_join_items(self):
        rules = load_language("sql")
        assert rules.join_items(["a", "b", "c"]) == "a, b, c"

    def test_join_items_empty_raises(self):
        with pytest.raises(ValueError):
            load_language("sql").join_items([])

    def test_fig3_min_age_composition_sqlpp(self):
        """Paper Fig. 3 walk-through: min('age') of Test.Users via the
        composition of operations 1 (scan), 2 (aggregate) and 3 (min)."""
        rules = load_language("sqlpp")
        q1 = rules.apply("q1", namespace="Test", collection="Users")
        agg = rules.apply("min", attribute="age")
        q = rules.apply("q8", subquery=q1, agg_func=agg)
        assert q == "SELECT MIN(t.age) FROM (SELECT VALUE t FROM Test.Users t) t"

    def test_fig3_min_age_composition_mongo(self):
        rules = load_language("mongo")
        agg = rules.apply("min", attribute="age")
        assert agg == '{ "$min": "$age" }'  # Fig. 3 row 3, MongoDB column

    def test_fig3_min_age_composition_cypher(self):
        rules = load_language("cypher")
        assert rules.apply("min", attribute="age") == "min(t.age)"  # Fig. 3 row 3

    def test_fig3_stddev_rules(self):
        # Fig. 3 row 7 across languages
        assert load_language("sqlpp").apply("std", attribute="a") == "STDDEV(t.a)"
        assert load_language("mongo").apply("std", attribute="a") == '{ "$stdDevPop": "$a" }'
        assert load_language("cypher").apply("std", attribute="a") == "stDevP(t.a)"

    def test_mongo_q2_composes_to_valid_json(self):
        rules = load_language("mongo")
        q = rules.apply(
            "q2",
            subquery=rules.apply("q1"),
            attribute_alias=rules.apply("proj_attr", attribute="lang"),
        )
        assert json.loads(f"[{q}]") == [
            {"$match": {}},
            {"$project": {"lang": 1}},
        ]

    def test_mongo_every_query_rule_yields_valid_json(self):
        """Each instantiated Mongo rule must parse as JSON stage text."""
        rules = load_language("mongo")
        base = rules.apply("q1")
        a = rules.apply("single_attribute", attribute="a")
        cases = {
            "q3": dict(subquery=base),
            "q4": dict(subquery=base, sort_attr=rules.apply("sort_desc_attr", attribute="a")),
            "q6": dict(subquery=base, statement=rules.apply("eq", left=a, right="1")),
            "q7": dict(subquery=base, statement=rules.apply("eq", left=a, right="1"), alias="val"),
            "q8": dict(subquery=base, agg_func=rules.apply("attribute_alias", alias="m", attribute=rules.apply("max", attribute="a"))),
            "limit": dict(subquery=base, num=5),
            "return_all": dict(subquery=base),
        }
        for key, kwargs in cases.items():
            json.loads("[" + rules.apply(key, **kwargs) + "]")

    def test_mongo_expression_rules_yield_complete_expressions(self):
        """Each Mongo expression rule, given complete operands, is one
        aggregation expression, so rules nest without added braces."""
        rules = load_language("mongo")
        assert json.loads(rules.apply("single_attribute", attribute="a")) == "$a"
        operands = dict(left='"$a"', statement='"$a"', right="1")
        keys = (
            "eq ne gt lt ge le is_missing not_missing add sub mul div mod "
            "and or not upper lower abs to_str to_int"
        ).split()
        cases = [(key, rules.apply(key, **operands)) for key in keys] + [
            (key, rules.apply(key, attribute="a"))
            for key in ("min", "max", "avg", "std", "count")
        ]
        for key, text in cases:
            expr = json.loads(text)
            assert isinstance(expr, dict) and len(expr) == 1, (key, text)
