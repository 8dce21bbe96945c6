"""The engine's rewrite orders against the all-orders search.

Without a width cap every search rewrites only the leftmost variable of a
form; with one, enumeration, membership and min_index rewrite only the
deepest sibling group (subtree order), so each child subtree is finished
before the next starts. The all-orders search is the oracle in util.py. On
random small grammars both orders must give the oracle's words, its proofs
and its minimums, and every witness must replay within the width cap. The
words are equal by the reordering argument. The least number of special
productions, searched in the engine's orders by util.special_count_min, is
held to the same oracle, as a second minimum over those orders.

A refutation needs a sweep, and either order can need more levels to sweep
than the oracle when the shortest derivation of some form is not in that
order. A grammar of seven variables shows it for the leftmost order:
S -> X0 Y | Xi W (i = 0..3), Xi -> Xi+1 (i < 3), X3 -> x, W -> Y, Y -> y
sweeps in 4 levels in all orders and needs 5 leftmost; no grammar within the
bounds below has shown it, and the leftmost tests require the oracle's sweeps.
The subtree order shows it on S -> S | S S at width 2: every order sweeps in
2 levels, but S S is stored again once per grouping of its variables (both in
one group, or one S started in a group of its own), and those states need a
third level. The capped tests allow an unknown answer where the oracle
refutes, when the search ran out of levels. The subtree order can also store
more states than the oracle stores forms.

check_uncontrolled searches no forms; its width table is checked against the
two-phase form search in util.py, which may only be less decisive.
"""

from hypothesis import example, given, settings, strategies as st

from igkit import fixture_text, replace
from igkit.engine import (
    Budget,
    check_uncontrolled,
    enumerate_language,
    membership,
    min_index,
)
from igkit.grammar import PUSH, Production, parse_grammar, replay
from igkit.search import HARD_CAP, MAX_STEPS, REFUTED, UNKNOWN

from util import (
    TERMS,
    grammars,
    make_grammar,
    oracle_check_uncontrolled,
    oracle_enumerate,
    oracle_membership,
    oracle_min_index,
    oracle_special_count_min,
    search_enumerate,
    special_count_min,
)

def budget_strategy(widths, hard_cap=5000):
    return st.builds(
        Budget,
        max_steps=st.integers(2, 10),
        max_width=st.sampled_from(widths),
        max_stack=st.sampled_from((None, 1, 2, 3)),
        hard_cap=st.just(hard_cap),
    )


budgets = budget_strategy((None,))  # leftmost order
capped = budget_strategy((1, 2, 3, 4))  # subtree order
# the two-phase search of oracle_check_uncontrolled starts a finishing search
# of up to hard_cap forms for every wide form; at 5000 one example took 23 s
uncontrolled = budget_strategy((None,), hard_cap=500)
words = st.lists(st.sampled_from(TERMS), max_size=4).map(tuple)


@given(grammars(), budgets)
def test_enumeration_matches_all_orders(g, budget):
    left = enumerate_language(g, 5, budget)
    full = oracle_enumerate(g, 5, budget)
    if HARD_CAP not in (left.stop, full.stop):
        assert left.words == full.words
    if full.exhausted:
        assert left.exhausted and left.words == full.words
    assert left.forms_seen <= full.forms_seen or full.stop == HARD_CAP


# S -> B A, A -> a, B -> C C, C -> b: "bba" has width 2 only when A, the
# later sibling, is finished first
LATER_SIBLING_FIRST = make_grammar(
    "later", ("S", "A", "B", "C"), TERMS, (),
    [Production("S", ("B", "A")), Production("A", ("a",)), Production("B", ("C", "C")),
     Production("C", ("b",))], "S")


def _bounded(g, budget):
    """Whether the stack is bounded: a stack cap, or no push production."""
    return budget.max_stack is not None or all(p.kind != PUSH for p in g.productions)


@given(grammars(), capped)
@example(LATER_SIBLING_FIRST, Budget(max_steps=10, max_width=2))
def test_capped_enumeration_matches_all_orders(g, budget):
    ours = enumerate_language(g, 5, budget)
    full = oracle_enumerate(g, 5, budget)
    if HARD_CAP not in (ours.stop, full.stop):
        assert ours.words == full.words
        if full.exhausted and _bounded(g, budget):
            assert ours.exhausted


# S -> A [+e], A -> b: at width 0 the search takes the push from the start
# form, whose width it never checks, so it lists b
PUSH_FROM_THE_START = make_grammar(
    "push", ("S", "A"), TERMS, ("e",),
    [Production("S", ("A",), push_index="e"), Production("A", ("b",))], "S")


# S -> A A, A -> a | B, B -> b: A has the word a before it has b, so b must
# be tried at either place of the repeated child, or ab is lost
REPEATED_CHILD = make_grammar(
    "repeat", ("S", "A", "B"), TERMS, (),
    [Production("S", ("A", "A")), Production("A", ("a",)), Production("A", ("B",)),
     Production("B", ("b",))], "S")


@given(grammars(), budget_strategy((0, 1, 2, 3, 4)))
@example(REPEATED_CHILD, Budget(max_steps=6, max_width=2))
@example(PUSH_FROM_THE_START, Budget(max_steps=3, max_width=0, max_stack=1))
@example(LATER_SIBLING_FIRST, Budget(max_steps=4, max_width=2))
def test_word_table_matches_the_search(g, budget):
    # with a bounded stack, enumerate_language reads a width-capped
    # enumeration from its word table; the table may sweep where the search
    # runs out of levels, never the other way round
    ours = enumerate_language(g, 5, budget)
    search = search_enumerate(g, 5, budget)
    if HARD_CAP not in (ours.stop, search.stop):
        assert ours.words == search.words
        if search.exhausted and _bounded(g, budget):
            assert ours.exhausted


def _replays_within(g, witness, w, budget):
    assert replay(g, witness).yield_word() == w
    assert budget.max_width is None or witness.index() <= budget.max_width


@given(grammars(), budgets, words)
def test_membership_matches_all_orders(g, budget, w):
    left = membership(g, w, budget, caps_exact=True)
    full = oracle_membership(g, w, budget, caps_exact=True)
    if full.kind != UNKNOWN:
        assert left.kind == full.kind
    if left.is_proven:
        _replays_within(g, left.witness, w, budget)


# S -> _ | S S | b: the oracle refutes "abb" at width 3 within 7 levels; the
# subtree search stores S S once per grouping of its variables, and those
# states need more levels, so it answers unknown after 54 forms
SUBTREE_ORDER_GAP = make_grammar(
    "gap", ("S",), TERMS, (),
    [Production("S", ()), Production("S", ("S", "S")), Production("S", ("b",))], "S")


@given(grammars(), capped, words)
@example(SUBTREE_ORDER_GAP, Budget(max_steps=7, max_width=3), tuple("abb"))
def test_capped_membership_matches_all_orders(g, budget, w):
    ours = membership(g, w, budget, caps_exact=True)
    full = oracle_membership(g, w, budget, caps_exact=True)
    if full.kind != UNKNOWN:
        # a refutation needs a sweep, which can take more levels here
        assert ours.kind == full.kind or (
            full.kind == REFUTED and ours.kind == UNKNOWN and ours.info["stop"] == MAX_STEPS)
    if ours.is_proven:
        _replays_within(g, ours.witness, w, budget)


def _outcome(fn, g, w, budget):
    """The minimum of a proven verdict, or the kind of any other; a witness
    must replay to w within the width cap."""
    v = fn(g, w, budget, caps_exact=True)
    if v.witness is not None:
        _replays_within(g, v.witness, w, budget)
    return v.info["k"] if v.is_proven else v.kind


MINIMUMS = ((special_count_min, oracle_special_count_min), (min_index, oracle_min_index))


@given(grammars(), budgets, words)
def test_minimums_match_all_orders(g, budget, w):
    for ours, oracle in MINIMUMS:
        full = _outcome(oracle, g, w, budget)
        if isinstance(full, int) or full == REFUTED:
            assert _outcome(ours, g, w, budget) == full


@given(grammars(), capped, words)
def test_capped_minimums_match_all_orders(g, budget, w):
    for ours, oracle in MINIMUMS:
        full = _outcome(oracle, g, w, budget)
        got = _outcome(ours, g, w, budget)
        if isinstance(full, int):
            assert got == full
        elif full == REFUTED:
            # as for membership, the sweep can take more levels here, and
            # then the answer stays open
            assert got in (full, UNKNOWN)


@given(grammars(), uncontrolled, st.integers(1, 3))
def test_check_uncontrolled_matches_all_orders(g, budget, k):
    # the width table decides wherever the form search does, and it may
    # decide where that search ran out of levels or hit the hard cap
    ours = check_uncontrolled(g, k, budget)
    full = oracle_check_uncontrolled(g, k, budget)
    if full.kind != UNKNOWN:
        assert ours.kind == full.kind
    if ours.kind == REFUTED:
        assert ours.witness.index() > k and replay(g, ours.witness).is_terminal()


# both orders: a step cap with no width cap, or with one
either_order = budget_strategy((None, 1, 2, 3))


@settings(max_examples=300)  # about 2 s
@given(grammars(), either_order, words, st.integers(0, 4))
def test_more_steps_keep_what_fewer_decided(g, budget, w, max_len):
    """With 8 more steps and the same caps, a caps_exact refutation does not
    turn into a proof, a proof is kept, a swept enumeration gains no word,
    and min_index's k does not grow."""
    more = replace(budget, max_steps=budget.max_steps + 8)
    few, many = (membership(g, w, b, caps_exact=True) for b in (budget, more))
    assert not (few.kind == REFUTED and many.is_proven)
    assert many.is_proven or not few.is_proven
    few, many = (enumerate_language(g, max_len, b) for b in (budget, more))
    if few.exhausted:
        assert set(many.words) <= set(few.words)
    few, many = (min_index(g, w, b, caps_exact=True) for b in (budget, more))
    if few.is_proven:
        assert many.is_proven and many.info["k"] <= few.info["k"]


def test_ramp_wide_derivation_is_refuted_quickly():
    # the two-phase form search of util.py takes seconds here; the table stores
    # 48 pairs
    g = parse_grammar(fixture_text("ramp.ig"))
    v = check_uncontrolled(g, 6, Budget(max_steps=120, max_stack=8))
    assert v.kind == REFUTED
    assert v.witness.index() > 6 and replay(g, v.witness).is_terminal()
