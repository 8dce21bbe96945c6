"""The leftmost search (no width cap) against the all-orders search.

Without a width cap every search rewrites only the leftmost variable of a
form. The all-orders search stays reachable as the oracle through a width cap
that cannot bind. On random small grammars the two must give the same words,
and the leftmost search must decide whatever the oracle decides, the same way.
The words are equal by the reordering argument; the second property is only
checked here: the leftmost search can need more levels to sweep when the
shortest derivation of some form is not leftmost. A grammar of seven variables
shows it: S -> X0 Y | Xi W (i = 0..3), Xi -> Xi+1 (i < 3), X3 -> x, W -> Y,
Y -> y sweeps in 4 levels in all orders and needs 5 leftmost. No grammar
within the bounds below has shown it.
"""

from hypothesis import given, strategies as st

from igkit import fixture_text
from igkit.engine import (
    Budget,
    NotAMember,
    check_uncontrolled,
    enumerate_language,
    membership,
    min_index,
    special_count_min,
)
from igkit.grammar import Production, make_grammar, parse_grammar, replay
from igkit.search import HARD_CAP

from util import all_orders

TERMS = ("a", "b")


@st.composite
def grammars(draw):
    """At most 4 variables and 2 indices; plain, push and consume productions."""
    vs = ("S", "A", "B", "C")[: draw(st.integers(1, 4))]
    idx = ("e", "f")[: draw(st.integers(0, 2))]
    prods = []
    for _ in range(draw(st.integers(1, 7))):
        lhs = draw(st.sampled_from(vs))
        kind = draw(st.sampled_from(("plain", "push", "consume") if idx else ("plain",)))
        if kind == "push":
            prods.append(Production(lhs, (draw(st.sampled_from(vs)),),
                                    push_index=draw(st.sampled_from(idx))))
            continue
        rhs = tuple(draw(st.lists(st.sampled_from(vs + TERMS), max_size=3)))
        consumed = draw(st.sampled_from(idx)) if kind == "consume" else None
        prods.append(Production(lhs, rhs, lhs_index=consumed))
    return make_grammar("rnd", vs, TERMS, idx, prods, "S")


budgets = st.builds(
    Budget,
    max_steps=st.integers(2, 10),
    max_stack=st.sampled_from((None, 1, 2, 3)),
    hard_cap=st.just(5000),
)
words = st.lists(st.sampled_from(TERMS), max_size=4).map(tuple)


@given(grammars(), budgets)
def test_enumeration_matches_all_orders(g, budget):
    left = enumerate_language(g, 5, budget)
    full = enumerate_language(g, 5, all_orders(budget))
    if HARD_CAP not in (left.stop, full.stop):
        assert left.words == full.words
    if full.exhausted:
        assert left.exhausted and left.words == full.words
    assert left.forms_seen <= full.forms_seen or full.stop == HARD_CAP


@given(grammars(), budgets, words)
def test_membership_matches_all_orders(g, budget, w):
    left = membership(g, w, budget, caps_exact=True)
    full = membership(g, w, all_orders(budget), caps_exact=True)
    if not full.is_unknown:
        assert left.kind == full.kind
    if left.is_proven:
        assert replay(g, left.witness).yield_word() == w


def _outcome(fn):
    """A minimum, None (unknown), or how NotAMember was raised."""
    try:
        out = fn()
    except NotAMember as exc:
        return ("not a member", exc.exhausted)
    return None if out is None else out[0]


@given(grammars(), budgets, words)
def test_minimums_match_all_orders(g, budget, w):
    for fn in (special_count_min, lambda *a: min_index(*a, caps_exact=True)):
        full = _outcome(lambda: fn(g, w, all_orders(budget)))
        if isinstance(full, int) or full == ("not a member", True):
            assert _outcome(lambda: fn(g, w, budget)) == full


@given(grammars(), budgets, st.integers(1, 2))
def test_check_uncontrolled_matches_all_orders(g, budget, k):
    left = check_uncontrolled(g, k, budget)
    full = check_uncontrolled(g, k, all_orders(budget))
    if not full.is_unknown:
        assert left.kind == full.kind
    if left.is_refuted:
        assert left.witness.index() > k and replay(g, left.witness).is_terminal()


def test_ramp_wide_derivation_is_refuted_quickly():
    # the finishing searches behind this refutation take seconds in all orders
    g = parse_grammar(fixture_text("ramp.ig"))
    v = check_uncontrolled(g, 6, Budget(max_steps=120, max_stack=8))
    assert v.is_refuted
    assert v.witness.index() > 6 and replay(g, v.witness).is_terminal()
