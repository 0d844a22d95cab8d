from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from procpyramid.naming import canonical_key, compile_aliases, normalize_name, resolve_alias

# a few names, some spelled in more than one way
RAW_NAMES = ["a", "A", " a", "b", "B ", "c", "C", "d", "e  e", "E e"]


def test_normalize_collapses_case_and_whitespace():
    assert normalize_name("  Park   Pilot\tTest ") == "park pilot test"
    assert normalize_name("") == ""


def test_alias_chain_follows_to_fixpoint():
    table = {"a": "b", "B": "c"}
    assert resolve_alias("A", table) == "c"
    assert resolve_alias("b", table) == "c"
    assert resolve_alias("c", table) == "c"


def test_alias_cycle_terminates():
    table = {"a": "b", "b": "a"}
    assert resolve_alias("a", table) in ("a", "b")
    assert resolve_alias("zz", table) == "zz"


def test_canonical_key_without_aliases_is_normalization():
    assert canonical_key(" X  y ") == "x y"
    assert canonical_key("pp requirements", {"pp requirements": "park pilot requirements"}) == (
        "park pilot requirements"
    )


@given(st.text(max_size=30))
def test_normalize_is_idempotent(name):
    once = normalize_name(name)
    assert normalize_name(once) == once


@given(st.dictionaries(st.sampled_from(RAW_NAMES), st.sampled_from(RAW_NAMES), max_size=8))
@example({"a": "b", "b": "c", " C": "d"})
@example({"a": "b", "B": "a"})
@example({"a": "b", "b": "c", "C": "a", "d": "a", "e e": "d"})
@example({"a": "a", "b": "A"})
def test_compiled_table_matches_the_per_name_walk(aliases):
    compiled = compile_aliases(aliases)
    assert set(compiled) == {normalize_name(k) for k in aliases}
    for name in RAW_NAMES:
        expected = oracles.alias_walk(name, aliases)
        assert canonical_key(name, compiled) == expected
        assert resolve_alias(name, aliases) == expected
