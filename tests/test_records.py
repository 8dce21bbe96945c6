"""The record decorator behind every value type: construction, equality,
hashing, frozenness, `replace` and the repr."""

import functools

import pytest

from igkit import field, fixture_text, record, replace
from igkit.engine import Budget
from igkit.grammar import GrammarError, Production, Terminal, Var, parse_grammar
from igkit.search import PROVEN, REFUTED, Verdict
from igkit.vector_automata import TupleAutomaton


@record
class Point:
    x: int
    y: int = 0
    label: str = field(default="p", compare=False)

    @functools.cached_property
    def norm(self):
        return abs(self.x) + abs(self.y)


@record
class Other:
    x: int
    y: int = 0
    label: str = field(default="p", compare=False)


def test_positional_and_keyword_construction_agree():
    assert Point(1, 2, "q") == Point(y=2, x=1, label="q") == Point(1, y=2)
    assert Point(1).y == 0 and Point(1).label == "p"
    assert vars(Point(1, 2)) == {"x": 1, "y": 2, "label": "p"}
    for args, kwargs in [((), {}), ((1, 2, "q", 4), {}), ((1,), {"z": 3}), ((1,), {"x": 1})]:
        with pytest.raises(TypeError):
            Point(*args, **kwargs)


def test_equality_is_class_sensitive_and_ignores_uncompared_fields():
    assert Point(1, 2, "a") == Point(1, 2, "b")
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2) != Other(1, 2)
    assert Terminal("a") != Var("a")
    g = parse_grammar(fixture_text("anbn.ig"))
    assert replace(g, name="other") == g


def test_hash_agrees_with_equality():
    g = parse_grammar(fixture_text("anbn.ig"))
    assert hash(replace(g, name="other")) == hash(g)
    assert hash(Point(1, 2, "a")) == hash(Point(1, 2, "b"))
    assert len({Production("S", ("a", "S")), Production("S", ("a", "S")), Production("S", ())}) == 2
    assert len({Var("A", ("f",)), Var("A", ("f",)), Var("A")}) == 2


def test_a_frozen_record_refuses_assignment_but_caches_properties():
    p = Point(3, -4)
    for change in (lambda: setattr(p, "x", 0), lambda: setattr(p, "new", 0),
                   lambda: delattr(p, "y")):
        with pytest.raises(AttributeError):
            change()
    assert p == Point(3, -4)
    assert p.norm == 7 and p.norm is p.norm
    g = parse_grammar(fixture_text("anbn.ig"))
    assert g.variable_set == frozenset(g.variables)


def test_replace_checks_the_copy_again():
    push = Production("A", ("B",), push_index="f")
    with pytest.raises(GrammarError, match="cannot consume"):
        replace(push, lhs_index="g")
    with pytest.raises(GrammarError, match="exactly one"):
        replace(push, rhs=("B", "C"))
    with pytest.raises(ValueError):
        replace(Budget(max_steps=5), max_width=-1)
    assert replace(Budget(max_steps=5), max_width=2) == Budget(5, 2)
    with pytest.raises(TypeError):
        replace(push, missing=1)


def test_each_verdict_gets_its_own_info_and_a_verdict_is_mutable_and_unhashable():
    a, b = Verdict(PROVEN), Verdict(PROVEN)
    a.info["k"] = 1
    assert b.info == {} and a != b
    a.kind = REFUTED
    assert a.kind == REFUTED
    with pytest.raises(TypeError):
        hash(b)


def test_eq_false_compares_by_identity():
    a = TupleAutomaton(1, 1, 0, frozenset({0}), {})
    b = TupleAutomaton(1, 1, 0, frozenset({0}), {})
    assert a == a and a != b
    assert len({a, b, a}) == 2
    with pytest.raises(AttributeError):
        a.initial = 1


def test_repr_is_pinned():
    g = parse_grammar(fixture_text("aaword.ig"))
    assert repr(g) == (
        "IndexedGrammar(variables=('S',), terminals=('a',), indices=(), productions="
        "(Production(lhs_var='S', rhs=('a', 'a'), lhs_index=None, push_index=None),), "
        "start='S', name='aaword')")
    assert repr(Verdict(PROVEN, None, {"k": 1})) == "Verdict(kind='proven', witness=None, info={'k': 1})"
    assert repr(TupleAutomaton(1, 1, 0, frozenset({0}), {(0, 1): (0,)})) == (
        "TupleAutomaton(tracks=1, num_states=1, initial=0, accepting=frozenset({0}))")
