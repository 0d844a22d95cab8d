import sys

from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from procpyramid.naming import canonical_key, compile_aliases, normalize_name

# a few names, some spelled in more than one way
RAW_NAMES = ["a", "A", " a", "b", "B ", "c", "C", "d", "e  e", "E e"]


def test_normalize_collapses_case_and_whitespace():
    assert normalize_name("  Park   Pilot\tTest ") == "park pilot test"
    assert normalize_name("") == ""


def test_alias_chain_follows_to_fixpoint():
    table = {"a": "b", "B": "c"}
    assert canonical_key("A", compile_aliases(table)) == "c"
    assert canonical_key("b", compile_aliases(table)) == "c"
    assert canonical_key("c", compile_aliases(table)) == "c"


def test_alias_cycle_terminates():
    table = {"a": "b", "b": "a"}
    assert canonical_key("a", compile_aliases(table)) in ("a", "b")
    assert canonical_key("zz", compile_aliases(table)) == "zz"


DEPTH = 5000


def test_a_chain_deeper_than_the_recursion_limit_maps_every_key_to_its_end():
    assert DEPTH > sys.getrecursionlimit()
    names = [f"k{i:05d}" for i in range(DEPTH + 1)]
    assert compile_aliases(dict(zip(names, names[1:]))) == dict.fromkeys(names[:-1], names[-1])


def test_a_cycle_deeper_than_the_recursion_limit_maps_each_member_to_the_one_naming_it():
    names = [f"k{i:05d}" for i in range(DEPTH)]
    aliases = dict(zip(names, names[1:] + names[:1]))
    assert compile_aliases(aliases) == {target: name for name, target in aliases.items()}


def test_canonical_key_without_aliases_is_normalization():
    assert canonical_key(" X  y ") == "x y"
    assert canonical_key("pp requirements", {"pp requirements": "park pilot requirements"}) == (
        "park pilot requirements"
    )


@given(st.text(max_size=30))
def test_normalize_is_idempotent(name):
    once = normalize_name(name)
    assert normalize_name(once) == once


# Every character `str.isspace` accepts, one that looks like a space but is
# not one (zero-width space), and letters whose case folding changes length.
WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)
NAME_ALPHABET = WHITESPACE + "\u200b" + "\xdf\u0130\ufb01" + "aZ"


def test_the_alphabet_holds_every_whitespace_character():
    assert {c for c in WHITESPACE} == {chr(cp) for cp in range(0x110000) if chr(cp).isspace()}


@given(st.text(alphabet=NAME_ALPHABET, max_size=30))
@example("\x1c a \u3000")
@example("\u0130 \xdf")
def test_normalize_matches_the_regex_form(name):
    assert normalize_name(name) == oracles.normalize_name_by_regex(name)


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
