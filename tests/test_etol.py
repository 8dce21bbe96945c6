"""Parallel rewriting systems: stepping, enumeration, normal-form checking,
and conversion to stack-indexed grammars."""

import pytest
from hypothesis import given, strategies as st

from igkit import fixture_text
from igkit.engine import Budget, enumerate_language, min_index
from igkit.etol import (
    EtolSystem,
    NotInANF,
    Table,
    _bounded_successors,
    check_anf,
    etol_enumerate,
    etol_to_indexed,
    parse_etol,
    validate_etol,
)
from igkit.grammar import GrammarError
from igkit.search import SWEPT

from util import etol_min_index, oracle_etol_successors, rendered, validate


def sys_fix(name):
    return parse_etol(fixture_text(name))


def etol_step(sys, word, table, choices):
    """One parallel step: choices[i] is the option index (within the table's
    productions for that symbol) applied to occurrence i."""
    t = sys.tables[table] if isinstance(table, int) else next(
        tb for tb in sys.tables if tb.name == table
    )
    word = tuple(word)
    if len(choices) != len(word):
        raise GrammarError("need exactly one choice per occurrence")
    out = []
    for sym, choice in zip(word, choices):
        opts = [rhs for lhs, rhs in t.rules if lhs == sym]
        if not opts:
            raise GrammarError(f"table {t.name} has no production for {sym!r}")
        if not 0 <= choice < len(opts):
            raise GrammarError(f"choice {choice} out of range for {sym!r} in {t.name}")
        out.extend(opts[choice])
    return tuple(out)


def serialize_etol(sys):
    """The strict `.etol` text that parse_etol reads back as sys."""
    lines = [f"etol {sys.name}", f"axiom: {sys.axiom}", "terminals: " + ", ".join(sys.terminals),
             "strict:"]
    for t in sys.tables:
        lines.append(f"table {t.name}:")
        for sym, rhs in t.rules:
            lines.append(f"rule: {sym} -> {' '.join(rhs) if rhs else '_'}")
    return "\n".join(lines) + "\n"


B = Budget(max_steps=24)


def test_step_single_symbol():
    sys = sys_fix("anbn1.etol")
    assert etol_step(sys, ("S",), "grow", (0,)) == ("a", "S", "b")
    assert etol_step(sys, ("a", "S", "b"), "stop", (0, 0, 0)) == ("a", "b")


def test_step_choices_are_independent():
    sys = EtolSystem(
        alphabet=("S", "a", "b"),
        terminals=("a", "b"),
        axiom="S",
        tables=(Table("t", (("S", ("a",)), ("S", ("b",)), ("a", ("a",)), ("b", ("b",)))),),
    )
    assert etol_step(sys, ("S", "S"), "t", (0, 1)) == ("a", "b")


def test_step_missing_production():
    sys = sys_fix("anbn2.etol")
    strict = EtolSystem(
        alphabet=sys.alphabet,
        terminals=sys.terminals,
        axiom=sys.axiom,
        tables=(Table("broken", (("D", ("A", "B")),)),),
    )
    with pytest.raises(GrammarError):
        etol_step(strict, ("A",), "broken", (0,))


@st.composite
def systems(draw):
    """At most 4 symbols and 3 tables, right sides of length 0 to 3: the
    symbols drawn inert have identity rules alone, and a table need not have
    a rule for every symbol."""
    alphabet = ("S", "A", "a", "b")[: draw(st.integers(1, 4))]
    inert = draw(st.sets(st.sampled_from(alphabet)))
    tables = []
    for i in range(draw(st.integers(1, 3))):
        rules = tuple((sym, (sym,) if sym in inert else
                       tuple(draw(st.lists(st.sampled_from(alphabet), max_size=3))))
                      for sym in draw(st.lists(st.sampled_from(alphabet), max_size=6)))
        tables.append(Table(f"t{i}", rules))
    return EtolSystem(alphabet, tuple(s for s in alphabet if s.islower()), "S", tuple(tables))


@given(systems(), st.data())
def test_successors_are_the_product_of_every_rule(sys, data):
    # the same (table, word) list, repeats and order included
    word = tuple(data.draw(st.lists(st.sampled_from(sys.alphabet), max_size=4)))
    max_inactive = data.draw(st.integers(0, 6))
    max_active = data.draw(st.none() | st.integers(0, 4))
    got = list(_bounded_successors(sys, max_inactive, max_active)(word))
    assert got == list(oracle_etol_successors(sys, max_inactive, max_active)(word))


def test_enumerate_anbn():
    got = etol_enumerate(sys_fix("anbn1.etol"), 8, B)
    assert got.info["stop"] == SWEPT
    assert set(rendered(got)) == {"a" * n + "b" * n for n in range(5)}


def test_enumerate_terminal_axiom():
    sys = EtolSystem(
        alphabet=("a",), terminals=("a",), axiom="a",
        tables=(Table("t", (("a", ("a",)),)),),
    )
    got = etol_enumerate(sys, 4, B)
    assert rendered(got) == ("a",)


def test_enumerate_empty_language():
    sys = EtolSystem(
        alphabet=("S", "a"), terminals=("a",), axiom="S",
        tables=(Table("t", (("S", ("S",)), ("a", ("a",)))),),
    )
    got = etol_enumerate(sys, 4, B)
    assert got.info["stop"] == SWEPT and got.witness == ()


def test_validate_totality():
    sys = EtolSystem(
        alphabet=("S", "a"), terminals=("a",), axiom="S",
        tables=(Table("t", (("S", ("a",)),)),),
    )
    assert any("parallel totality" in p for p in validate_etol(sys))


def test_check_anf():
    assert check_anf(sys_fix("anbn2.etol")) == []
    active_terminal = EtolSystem(
        alphabet=("S", "a"), terminals=("a",), axiom="S",
        tables=(Table("t", (("S", ("a",)), ("a", ("a", "a")))),),
    )
    assert any("terminal 'a' is active" in p for p in check_anf(active_terminal))
    lazy = EtolSystem(
        alphabet=("S", "U", "a"), terminals=("a",), axiom="S",
        tables=(Table("t", (("S", ("a",)), ("U", ("U",)), ("a", ("a",)))),),
    )
    assert any("non-terminal 'U' is inactive" in p for p in check_anf(lazy))


# -- conversion ---------------------------------------------------------------


# fixture -> (stack depth, width) caps: the spine pushes one index per
# parallel step, so the depth bound is the longest useful table sequence for
# words of length 10 plus slack; width is the active count bound plus one.
FIXTURES = {
    "anbn1.etol": (8, 3),
    "anbn2.etol": (8, 4),
    "abc.etol": (7, 5),
    "word.etol": (3, 3),
    "twochoice.etol": (12, 3),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_conversion_preserves_language(name):
    stack, width = FIXTURES[name]
    sys = sys_fix(name)
    g = etol_to_indexed(sys)
    assert validate(g) == []
    direct = set(rendered(etol_enumerate(sys, 10, Budget(max_steps=30))))
    res = enumerate_language(g, 10, Budget(max_steps=200, max_stack=stack, max_width=width))
    assert res.info["stop"] == SWEPT
    assert set(rendered(res)) == direct


def test_conversion_requires_anf():
    sys = EtolSystem(
        alphabet=("S", "a"), terminals=("a",), axiom="S",
        tables=(Table("t", (("S", ("a",)), ("a", ("a", "a")))),),
    )
    with pytest.raises(NotInANF):
        etol_to_indexed(sys)


def test_conversion_index_at_most_double():
    sys = sys_fix("anbn2.etol")
    g = etol_to_indexed(sys)
    for word in ["ab", "aabb"]:
        w = tuple(word)
        k_sys = etol_min_index(sys, w, Budget(max_steps=20))
        got = min_index(g, w, Budget(max_steps=120, max_stack=10))
        assert got.is_proven and k_sys.is_proven
        assert got.info["k"] <= 2 * k_sys.info["k"]


def test_conversion_invariant_under_table_renaming():
    sys = sys_fix("anbn1.etol")
    renamed = EtolSystem(
        alphabet=sys.alphabet,
        terminals=sys.terminals,
        axiom=sys.axiom,
        tables=tuple(Table(f"t{i}", t.rules) for i, t in enumerate(sys.tables)),
        name="renamed",
    )
    a = enumerate_language(etol_to_indexed(sys), 8, Budget(max_steps=160, max_stack=12))
    b = enumerate_language(etol_to_indexed(renamed), 8, Budget(max_steps=160, max_stack=12))
    assert a.witness == b.witness


def test_min_index_measures_width():
    assert etol_min_index(sys_fix("anbn1.etol"), tuple("aabb"), B).info["k"] == 1
    assert etol_min_index(sys_fix("anbn2.etol"), tuple("aabb"), B).info["k"] == 2
    assert etol_min_index(sys_fix("abc.etol"), tuple("abc"), B).info["k"] == 3


def test_round_trip():
    for name in FIXTURES:
        sys = sys_fix(name)
        assert parse_etol(serialize_etol(sys)) == sys


def test_identity_defaulting():
    sys = sys_fix("anbn2.etol")
    grow = next(t for t in sys.tables if t.name == "grow")
    assert [rhs for sym, rhs in grow.rules if sym == "D"] == [("D",)]
