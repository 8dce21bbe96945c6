"""Derivation search: enumeration, membership, index measurement, width audit."""

import pytest
from hypothesis import assume, example, given, strategies as st

from igkit import fixture_text
from igkit.engine import (
    Budget,
    _can_yield,
    check_uncontrolled,
    enumerate_language,
    membership,
    min_index,
    tree_width,
)
from igkit.grammar import parse_grammar, replay

from igkit.search import REFUTED, SWEPT, UNKNOWN

from util import (
    oracle_can_yield,
    oracle_tree_width,
    rendered,
    special_count,
    special_count_min,
)


def g_fix(name):
    return parse_grammar(fixture_text(name))


TWIN_BUDGET = Budget(max_steps=60, max_stack=3)
EX1_BUDGET = Budget(max_steps=150, max_width=4, max_stack=7)


def words(res):
    return set(rendered(res))


def ramp_word(n):
    return "".join("a" * i + "b" for i in range(1, n + 1)) + "a" * (n + 1)


# -- enumeration ---------------------------------------------------------------


def test_twin_enumeration_to_14():
    res = enumerate_language(g_fix("twin.ig"), 14, TWIN_BUDGET)
    assert words(res) == {"$", "abc$abc", "aabbcc$aabbcc"}
    assert res.info["stop"] == SWEPT


def test_negative_length_is_not_unbounded():
    # the kernel reads max_terms = -1 as no cap, so -1 must not reach it
    with pytest.raises(ValueError, match="max_len must be >= 0"):
        enumerate_language(g_fix("anbn.ig"), -1, Budget(max_steps=12))
    assert words(enumerate_language(g_fix("anbn.ig"), 0, Budget(max_steps=12))) == {""}


def test_ramp_grammar_enumeration_to_8():
    res = enumerate_language(g_fix("ramp.ig"), 8, Budget(max_steps=60, max_width=4, max_stack=4))
    assert words(res) == {"abaa", "abaabaaa"}
    assert res.info["stop"] == SWEPT


def test_eps_grammar_enumeration():
    res = enumerate_language(g_fix("eps.ig"), 5, Budget(max_steps=5))
    assert res.witness == ((),)
    assert res.info["stop"] == SWEPT


def test_empty_grammar_enumeration():
    res = enumerate_language(g_fix("empty.ig"), 5, Budget(max_steps=5))
    assert res.witness == ()
    assert res.info["stop"] == SWEPT


def test_length_lex_order():
    res = enumerate_language(g_fix("sigmastar_ab.ig"), 2, Budget(max_steps=10))
    assert rendered(res) == ("", "a", "b", "aa", "ab", "ba", "bb")


def test_enumeration_monotone_in_budget():
    g = g_fix("anbn.ig")
    small = enumerate_language(g, 10, Budget(max_steps=4))
    big = enumerate_language(g, 10, Budget(max_steps=30))
    assert set(small.witness) <= set(big.witness)
    assert words(big) == {"ab" and "a" * n + "b" * n for n in range(6)}


def test_unexhausted_budget_is_reported():
    res = enumerate_language(g_fix("astar.ig"), 3, Budget(max_steps=2))
    assert res.info["stop"] != SWEPT


# -- membership ------------------------------------------------------------------


def test_membership_proven_with_replayable_witness():
    g = g_fix("ramp.ig")
    v = membership(g, tuple("abaa"), Budget(max_steps=40, max_stack=4))
    assert v.is_proven
    final = replay(g, v.witness)
    assert final.yield_word() == tuple("abaa")


def test_membership_refuted_needs_exactness_flag():
    g = g_fix("ramp.ig")
    b = Budget(max_steps=40, max_width=4, max_stack=4)
    assert membership(g, tuple("abab"), b).kind == UNKNOWN
    assert membership(g, tuple("abab"), b, caps_exact=True).kind == REFUTED


def test_membership_eps_cases():
    assert membership(g_fix("eps.ig"), (), Budget(max_steps=4), caps_exact=True).is_proven
    v = membership(g_fix("abword.ig"), (), Budget(max_steps=4), caps_exact=True)
    assert v.kind == REFUTED


def test_membership_agrees_with_enumeration():
    g = g_fix("anbn.ig")
    b = Budget(max_steps=30)
    enum = words(enumerate_language(g, 6, b))
    for w in ["", "ab", "aabb", "ba", "aab", "abab", "aaabbb"]:
        v = membership(g, tuple(w), b, caps_exact=True)
        assert v.is_proven == (w in enum), w


# encoded items: a terminal is -1 or -2, a variable occurrence 0 or more
encoded_terms = st.lists(st.sampled_from((-1, -2)), max_size=7).map(tuple)
encoded_forms = st.lists(st.sampled_from((-1, -2, 0, 5)), max_size=8).map(tuple)


@given(encoded_forms, encoded_terms)
@example((-1, 0, -2, 0, -2, 0, -1), (-1, -2, -1))  # the middle blocks would overlap
@example((-1, -2, 0, -2, -1), (-1, -2, -1))  # the ends would overlap
@example((0,), ())
def test_can_yield_matches_the_two_pass_check(form, target):
    assert _can_yield(form, target) == oracle_can_yield(form, target)


@given(st.lists(st.integers(0, 6), max_size=4), st.booleans())
def test_tree_width_matches_the_sorted_formula(kids, push):
    assume(kids or not push)  # a push has a child
    assert tree_width(kids, push) == oracle_tree_width(kids, push)


# -- min_index -------------------------------------------------------------------


def test_min_index_twin_word_is_7():
    got = min_index(g_fix("twin.ig"), tuple("abc$abc"), TWIN_BUDGET)
    assert got.is_proven
    k, wit = got.info["k"], got.witness
    assert k == 7
    assert wit.index() == 7


def test_min_index_eps_is_1():
    v = min_index(g_fix("eps.ig"), (), Budget(max_steps=4))
    k, wit = v.info["k"], v.witness
    assert k == 1 and wit.index() == 1


def test_min_index_abaa_is_3():
    v = min_index(g_fix("ramp.ig"), tuple("abaa"), Budget(max_steps=60, max_stack=4))
    k, wit = v.info["k"], v.witness
    assert k == 3
    assert wit.index() == 3
    assert replay(g_fix("ramp.ig"), wit).yield_word() == tuple("abaa")


def test_min_index_not_a_member():
    assert min_index(g_fix("anbn.ig"), tuple("ba"), Budget(max_steps=20),
                     caps_exact=True).kind == REFUTED


# -- check_uncontrolled ------------------------------------------------------------


def test_ramp_grammar_not_uncontrolled_at_3():
    g = g_fix("ramp.ig")
    v = check_uncontrolled(g, 3, Budget(max_steps=60, max_stack=5))
    assert v.kind == REFUTED
    wit = v.witness
    assert wit.index() > 3
    final = replay(g, wit)
    assert final.is_terminal()  # a successful derivation through a wide form
    assert "".join(final.yield_word()) in {ramp_word(n) for n in range(1, 6)}


def test_right_linear_grammar_is_uncontrolled_1():
    g = parse_grammar(
        "grammar rl\nvariables: S\nterminals: a\nindices:\nstart: S\nprod: S -> a S\nprod: S -> a\n"
    )
    v = check_uncontrolled(g, 1, Budget(max_steps=20))
    assert v.is_proven


def test_uncontrolled_union_of_uncontrolled():
    from igkit.closure import union

    g1 = parse_grammar(
        "grammar u1\nvariables: S\nterminals: a\nindices:\nstart: S\nprod: S -> a S\nprod: S -> a\n"
    )
    g2 = parse_grammar(
        "grammar u2\nvariables: T\nterminals: b\nindices:\nstart: T\nprod: T -> b T\nprod: T -> b\n"
    )
    v = check_uncontrolled(union(g1, g2), 1, Budget(max_steps=30))
    assert v.is_proven


# -- special_count_min ---------------------------------------------------------------


def test_special_count_zero_for_linear_grammar():
    v = special_count_min(g_fix("astar.ig"), tuple("aaa"), Budget(max_steps=20))
    assert v.info["k"] == 0


def test_special_count_one_for_twin_word():
    v = special_count_min(g_fix("twin.ig"), tuple("abc$abc"), TWIN_BUDGET)
    assert v.info["k"] == 1
    assert special_count(g_fix("twin.ig"), v.witness) == 1


def test_special_count_not_a_member():
    assert special_count_min(g_fix("anbn.ig"), tuple("ba"), Budget(max_steps=10),
                             caps_exact=True).kind == REFUTED


# -- witness serialization --------------------------------------------------------


def test_trace_format():
    from igkit.grammar import derivation_to_trace

    g = g_fix("eps.ig")
    v = membership(g, (), Budget(max_steps=3))
    trace = derivation_to_trace(g, v.witness)
    assert trace.splitlines()[0] == "init | S"
    assert trace.splitlines()[1].startswith("p0 @ 0 | ")


def test_enumeration_reports_active_caps():
    assert Budget(max_steps=10, max_stack=2).active_caps() == ("max_steps", "max_stack")


def test_special_count_witness_replays():
    g = g_fix("twin.ig")
    v = special_count_min(g, tuple("abc$abc"), TWIN_BUDGET)
    n, wit = v.info["k"], v.witness
    final = replay(g, wit)
    assert final.yield_word() == tuple("abc$abc")
    assert special_count(g, wit) == n == 1


def test_ramp_grammar_refuted_at_every_small_k():
    g = g_fix("ramp.ig")
    for k, stack in [(1, 4), (2, 4), (4, 6), (6, 8)]:
        v = check_uncontrolled(g, k, Budget(max_steps=120, max_stack=stack))
        assert v.kind == REFUTED, k
        assert v.witness.index() > k
        assert replay(g, v.witness).is_terminal()


def test_check_uncontrolled_ignores_caller_width_cap():
    # a narrow width budget must not hide the wide refutation witness
    g = g_fix("ramp.ig")
    v = check_uncontrolled(g, 3, Budget(max_steps=60, max_stack=5, max_width=1))
    assert v.kind == REFUTED
