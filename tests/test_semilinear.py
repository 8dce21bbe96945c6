"""Semilinear sets: counting maps, the two membership routes, the automaton
algebra, bounded-language decisions, and grammar synthesis."""

import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

import igkit.vector_automata as va
from igkit import fixture_text
from igkit.engine import Budget, check_uncontrolled, enumerate_language
from igkit.semilinear import (
    GinsburgShape,
    LinearSet,
    SemilinearSet,
    bounded_lang_subset,
    bounded_word_member,
    diophantine_member,
    factorizations,
    ginsburg_apply,
    linear_to_grammar,
    linearset_automaton,
    members_up_to,
    parse_slset,
    semilinear_to_grammar,
    slset_automaton,
    slset_empty,
    slset_equal,
    slset_member,
    slset_subset,
)
from igkit.search import PROVEN, REFUTED, UNKNOWN

from util import (
    grid_members,
    oracle_difference_witness,
    oracle_linearset_automaton,
    parikh,
    rendered,
    serialize_slset,
    slset,
    special_count_min,
    special_productions,
)

TWIN_SHAPE = GinsburgShape((("a",), ("b",), ("c",), ("$",), ("a",), ("b",), ("c",)))
TWIN_SET = LinearSet.make((0, 0, 0, 1, 0, 0, 0), [(1, 1, 1, 0, 1, 1, 1)])


# -- counting maps ------------------------------------------------------------


def test_parikh_counts():
    assert parikh(tuple("abc$abc"), ("a", "b", "c", "$")) == (2, 2, 2, 1)
    assert parikh((), ("a", "b")) == (0, 0)
    assert parikh(tuple("abaabaaa"), ("a", "b")) == (6, 2)


def test_ginsburg_apply():
    assert "".join(ginsburg_apply(TWIN_SHAPE, (1,) * 7)) == "abc$abc"
    assert ginsburg_apply(TWIN_SHAPE, (0,) * 7) == ()
    assert "".join(ginsburg_apply(GinsburgShape((("a", "b"),)), (3,))) == "ababab"


# -- Diophantine oracle ---------------------------------------------------------


def test_diophantine_twin_grammar():
    assert diophantine_member((3, 3, 3, 1, 3, 3, 3), TWIN_SET)
    assert not diophantine_member((2, 3, 3, 1, 3, 3, 3), TWIN_SET)
    assert diophantine_member(TWIN_SET.base, TWIN_SET)


def test_zero_periods_are_normalized_away():
    ls = LinearSet.make((1, 0), [(0, 0), (2, 1)])
    assert ls.periods == ((2, 1),)
    assert diophantine_member((5, 2), ls)


# -- equation automata ----------------------------------------------------------


def test_equality_relation():
    a = va.equation_automaton((1, -1), 0)
    assert va.member(a, (3, 3))
    assert not va.member(a, (2, 3))
    assert va.member(a, (0, 0))


def test_constant_equation():
    a = va.equation_automaton((1,), 5)
    assert [n for n in range(9) if va.member(a, (n,))] == [5]


def test_double_equation():
    a = va.equation_automaton((2, -1), 0)
    assert va.member(a, (3, 6))
    assert not va.member(a, (3, 5))
    for x in range(8):
        for y in range(8):
            assert va.member(a, (x, y)) == (2 * x == y)


# -- automaton algebra -----------------------------------------------------------


def test_projection_of_equality_covers_everything():
    eq = va.equation_automaton((1, -1), 0)
    proj = va.project_tracks(eq, (0,))
    assert all(va.member(proj, (n,)) for n in range(9))


def test_complement_of_empty_accepts_zero():
    comp = va.complement(va.never(2))
    assert va.member(comp, (0, 0))
    assert va.member(comp, (5, 3))


def test_product_crosses_constraints():
    evens = va.project_tracks(va.equation_automaton((1, -2), 0), (0,))
    triples = va.project_tracks(va.equation_automaton((1, -3), 0), (0,))
    both = va.product(evens, triples)
    assert va.member(both, (6,))
    assert not va.member(both, (4,))
    assert {n for n in range(20) if va.member(both, (n,))} == {0, 6, 12, 18}


def test_is_empty_returns_shortest_witness():
    eq = va.equation_automaton((1, -1), 0)
    assert va.is_empty(eq) == (0, 0)
    assert va.is_empty(va.never(2)) is None


def test_padding_closure_at_word_level():
    a = linearset_automaton(TWIN_SET)

    def word_accepts(word):
        cur = {a.initial}
        for sym in word:
            cur = {d for s in cur for d in a.targets(s, sym)}
        return bool(cur & a.accepting)

    for n in range(4):
        v = tuple(x + n * y for x, y in zip(TWIN_SET.base, TWIN_SET.periods[0]))
        enc = va.encode(v)
        assert word_accepts(enc)
        assert word_accepts(enc + [0, 0, 0])


# -- compiled linear sets ---------------------------------------------------------


def test_twin_automaton_members():
    a = linearset_automaton(TWIN_SET)
    assert va.member(a, (2, 2, 2, 1, 2, 2, 2))
    assert not va.member(a, (0,) * 7)


def rand_linear(rng, dim):
    base = tuple(rng.randrange(6) for _ in range(dim))
    periods = [tuple(rng.randrange(6) for _ in range(dim)) for _ in range(rng.randrange(3))]
    return LinearSet.make(base, periods)


@pytest.mark.parametrize("seed", range(6))
def test_random_sets_agree_with_diophantine(seed):
    rng = random.Random(seed)
    dim = rng.randrange(1, 4)
    ls = rand_linear(rng, dim)
    grid = grid_members(linearset_automaton(ls), 8)
    import itertools

    for v in itertools.product(range(9), repeat=dim):
        assert (v in grid) == diophantine_member(v, ls), (ls, v)


def linear_sets(dim, max_entry=3):
    """Linear sets of the dimension with 0-3 periods, drawn as LinearSet
    itself stores them: a zero period or a repeated one stays."""
    vec = st.lists(st.integers(0, max_entry), min_size=dim, max_size=dim).map(tuple)
    return st.builds(lambda b, ps, twin: LinearSet(dim, b, tuple(ps + ps[:twin])[:3]),
                     vec, st.lists(vec, max_size=3), st.integers(0, 1))


def automaton_bytes(a):
    return (a.tracks, a.num_states, a.initial, a.accepting, list(a.transitions.items()))


@given(st.integers(1, 4).flatmap(linear_sets))
@example(LinearSet(3, (0, 0, 0)))
@example(LinearSet(2, (0, 0), ((1, 1), (1, 1))))
@example(LinearSet(2, (0, 0), ((0, 0), (2, 1), (2, 1))))
@example(LinearSet(4, (3, 0, 2, 1), ((1, 2, 0, 3), (3, 3, 3, 3), (0, 0, 1, 0))))
@example(TWIN_SET)
def test_linearset_automaton_matches_the_products(ls):
    assert automaton_bytes(linearset_automaton(ls)) == automaton_bytes(
        oracle_linearset_automaton(ls))


# -- semilinear decisions ----------------------------------------------------------


def diag_quadrant():
    diag = slset(LinearSet.make((0, 0), [(1, 1)]))
    quad = slset(LinearSet.make((0, 0), [(1, 0), (0, 1)]))
    return diag, quad


def test_subset_diag_in_quadrant():
    diag, quad = diag_quadrant()
    assert slset_subset(diag, quad).is_proven


def test_subset_refuted_with_witness():
    diag, quad = diag_quadrant()
    v = slset_subset(quad, diag)
    assert not v.is_proven
    assert not any(diophantine_member(v.witness, c) for c in diag.components)
    assert any(diophantine_member(v.witness, c) for c in quad.components)


def test_subset_reflexive():
    s = slset(TWIN_SET)
    assert slset_subset(s, s).is_proven


def test_union_with_self_is_equal():
    diag, _ = diag_quadrant()
    doubled = SemilinearSet(2, diag.components + diag.components)
    assert slset_equal(diag, doubled).is_proven


@st.composite
def set_pairs(draw):
    """Two semilinear sets of one dimension, each of 0-2 components; the
    second is often a superset of the first (one more component or period)."""
    dim = draw(st.integers(1, 3))
    comps = st.lists(linear_sets(dim, max_entry=2), max_size=2).map(tuple)
    first = draw(comps)
    grow = draw(st.sampled_from(["no", "component", "period"]))
    if grow == "component":
        second = first + (draw(linear_sets(dim, max_entry=2)),)
    elif grow == "period" and first:
        ls = first[0]
        extra = draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim).map(tuple))
        second = (LinearSet(dim, ls.base, ls.periods + (extra,)),) + first[1:]
    else:
        second = draw(comps)
    return SemilinearSet(dim, first), SemilinearSet(dim, second)


@given(set_pairs())
@example((SemilinearSet(2, ()), SemilinearSet(2, ())))
@example((slset(LinearSet.make((1, 0))), SemilinearSet(2, ())))
@example(diag_quadrant())
@example(diag_quadrant()[::-1])
def test_inclusion_matches_the_complement_product(pair):
    s1, s2 = pair
    a1, a2 = slset_automaton(s1), slset_automaton(s2)
    want = oracle_difference_witness(a1, a2)
    assert va.is_empty(a1, a2) == want
    got = slset_subset(s1, s2)
    assert (got.kind, got.witness) == ((PROVEN, None) if want is None else (REFUTED, want))
    back = oracle_difference_witness(a2, a1)
    eq = slset_equal(s1, s2)
    assert eq.witness == (back if want is None else want)
    assert eq.is_proven == (want is None and back is None)


def test_each_decision_builds_each_automaton_once(monkeypatch):
    import igkit.semilinear as sl

    built = []
    monkeypatch.setattr(sl, "slset_automaton", lambda s: built.append(s) or slset_automaton(s))
    diag, quad = diag_quadrant()
    twin = slset(TWIN_SET)
    sl.slset_equal(diag, SemilinearSet(2, diag.components * 2))
    assert len(built) == 2
    built.clear()
    shape = GinsburgShape((("a",), ("a",)))
    assert sl.bounded_word_member(tuple("aaa"), shape, quad)
    assert built == [quad]
    built.clear()
    assert not sl.bounded_word_member(tuple("ab"), shape, quad)
    assert built == []  # no factorization, no automaton
    changed = slset(LinearSet.make((0, 0, 0, 1, 0, 0, 0), [(1, 1, 1, 0, 1, 1, 2)]))
    assert sl.bounded_lang_subset(TWIN_SHAPE, twin, TWIN_SHAPE, changed, 20).kind == REFUTED
    assert built == [changed, twin]


def test_dimension_zero():
    point, empty = slset(LinearSet.make(())), SemilinearSet(0, ())
    assert slset_member((), point)
    assert slset_empty(point).witness == ()
    assert slset_subset(point, empty).witness == ()
    assert slset_subset(empty, point).is_proven


def test_empty_set_and_membership():
    assert slset_empty(SemilinearSet(3, ())).is_proven
    s = slset(TWIN_SET)
    assert not slset_empty(s).is_proven
    assert slset_member((4, 4, 4, 1, 4, 4, 4), s)
    assert not slset_member((4, 4, 4, 0, 4, 4, 4), s)


# -- bounded languages ---------------------------------------------------------------


def test_bounded_word_member_twin_grammar():
    s = slset(TWIN_SET)
    assert bounded_word_member(tuple("abc$abc"), TWIN_SHAPE, s)
    assert not bounded_word_member(tuple("abc$ac"), TWIN_SHAPE, s)
    assert bounded_word_member((), TWIN_SHAPE, slset(LinearSet.make((0,) * 7)))


def test_factorizations_are_complete():
    shape = GinsburgShape((("a",), ("a",)))
    assert sorted(factorizations(("a",) * 3, shape)) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_bounded_subset_proven_for_equal_shapes():
    s = slset(TWIN_SET)
    full = slset(
        LinearSet.make((0,) * 7, [tuple(1 if i == j else 0 for i in range(7)) for j in range(7)])
    )
    res = bounded_lang_subset(TWIN_SHAPE, s, TWIN_SHAPE, full, 20)
    assert res.kind == PROVEN


def test_bounded_subset_verified_up_to_for_distinct_shapes():
    # a^2n written over one-letter blocks vs the two-letter block shape
    s1 = slset(LinearSet.make((0,), [(1,)]))
    shape1 = GinsburgShape((("a", "a"),))
    s2 = slset(LinearSet.make((0,), [(2,)]))
    shape2 = GinsburgShape((("a",),))
    res = bounded_lang_subset(shape1, s1, shape2, s2, 12)
    assert res.kind == UNKNOWN
    assert res.info["checked_len"] == 12


def test_bounded_subset_refuted():
    changed = slset(LinearSet.make((0, 0, 0, 1, 0, 0, 0), [(1, 1, 1, 0, 1, 1, 2)]))
    res = bounded_lang_subset(TWIN_SHAPE, changed, TWIN_SHAPE, slset(TWIN_SET), 20)
    assert res.kind == REFUTED
    assert "".join(res.witness) == "abc$abcc"
    back = bounded_lang_subset(TWIN_SHAPE, slset(TWIN_SET), TWIN_SHAPE, changed, 20)
    assert back.kind == REFUTED
    assert "".join(back.witness) == "abc$abc"


def test_members_up_to_order():
    s = slset(LinearSet.make((0, 0), [(1, 0), (0, 1)]))
    got = members_up_to(s, (1, 1), 2)
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


# -- grammar synthesis -----------------------------------------------------------------


def enum(g, n, **kw):
    res = enumerate_language(g, n, Budget(max_steps=kw.pop("steps", 300), **kw))
    assert res.exhausted
    return set(rendered(res))


def test_twin_synthesis_matches_language():
    g = linear_to_grammar(TWIN_SHAPE, TWIN_SET)
    assert len(g.variables) == 9 and len(g.productions) == 17
    assert enum(g, 14, max_stack=3) == {"$", "abc$abc", "aabbcc$aabbcc"}


def test_synthesis_unary_star():
    g = linear_to_grammar(GinsburgShape((("a",),)), LinearSet.make((0,), [(1,)]))
    assert enum(g, 6, max_stack=8) == {"a" * n for n in range(7)}


def test_synthesis_single_word():
    g = linear_to_grammar(GinsburgShape((("a",), ("b",))), LinearSet.make((1, 2)))
    assert enum(g, 5) == {"abb"}


def test_synthesis_has_one_special_production():
    g = linear_to_grammar(TWIN_SHAPE, TWIN_SET)
    assert len(special_productions(g)) == 1
    v = special_count_min(g, tuple("abc$abc"), Budget(max_steps=60, max_stack=3))
    assert v.info["k"] == 1


def test_synthesis_is_uncontrolled_at_its_width():
    shape = GinsburgShape((("a",), ("b",)))
    g = linear_to_grammar(shape, LinearSet.make((1, 0), [(1, 1)]))
    v = check_uncontrolled(g, 2, Budget(max_steps=40, max_stack=4))
    assert v.is_proven


def test_synthesis_name_collisions_are_avoided():
    shape = GinsburgShape((("S",), ("Y",)))
    g = linear_to_grammar(shape, LinearSet.make((1, 1)))
    assert not set(g.variables) & {"S", "Y"}
    assert enum(g, 4) == {"SY"}


def test_semilinear_synthesis_union():
    shape = GinsburgShape((("a",), ("b",)))
    s = slset(LinearSet.make((1, 0)), LinearSet.make((0, 2)))
    g = semilinear_to_grammar(shape, s)
    assert enum(g, 4) == {"a", "bb"}


def test_semilinear_synthesis_empty():
    g = semilinear_to_grammar(GinsburgShape((("a",),)), SemilinearSet(1, ()))
    assert enum(g, 4) == set()


def test_semilinear_singleton_matches_linear():
    g1 = linear_to_grammar(TWIN_SHAPE, TWIN_SET)
    g2 = semilinear_to_grammar(TWIN_SHAPE, slset(TWIN_SET))
    assert enum(g1, 13, max_stack=3) == enum(g2, 13, max_stack=3)


@st.composite
def shaped_sets(draw):
    """A Ginsburg shape of 1-3 words of length 1-2 over a and b, and a
    semilinear set of its dimension: 1-2 components of 0-2 periods."""
    dim = draw(st.integers(1, 3))
    word = st.lists(st.sampled_from("ab"), min_size=1, max_size=2).map(tuple)
    vec = st.lists(st.integers(0, 2), min_size=dim, max_size=dim).map(tuple)
    comp = st.builds(lambda b, ps: LinearSet(dim, b, tuple(ps)), vec, st.lists(vec, max_size=2))
    shape = GinsburgShape(tuple(draw(st.lists(word, min_size=dim, max_size=dim))))
    return shape, SemilinearSet(dim, tuple(draw(st.lists(comp, min_size=1, max_size=2))))


@given(shaped_sets())
def test_synthesis_round_trips_through_the_set(case):
    shape, s = case
    want = {"".join(ginsburg_apply(shape, v))
            for v in members_up_to(s, [len(u) for u in shape.words], 7)}
    # a word of length <= 7 takes at most 7 nonzero periods, so at most 8
    # indices with the bottom; zero periods add no word
    assert enum(semilinear_to_grammar(shape, s), 7, max_stack=8) == want
    for n in range(6):
        for w in itertools.product("ab", repeat=n):
            assert bounded_word_member(w, shape, s) == ("".join(w) in want), w


# -- file format -----------------------------------------------------------------------


def test_parse_fixture_files():
    name, shape, s = parse_slset(fixture_text("twin.sls"))
    assert name == "twin" and shape == TWIN_SHAPE
    assert s.components == (TWIN_SET,)
    _, _, diag = parse_slset(fixture_text("diag.sls"))
    _, _, quad = parse_slset(fixture_text("quadrant.sls"))
    assert slset_subset(diag, quad).is_proven


def test_slset_round_trip():
    s = slset(TWIN_SET, LinearSet.make((1, 0, 0, 0, 0, 0, 0)))
    text = serialize_slset("rt", TWIN_SHAPE, s)
    name, shape, back = parse_slset(text)
    assert (name, shape, back) == ("rt", TWIN_SHAPE, s)


# -- agreement property ------------------------------------------------------------------


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(0, 4), min_size=d, max_size=d),
            st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), max_size=2),
            st.lists(st.integers(0, 6), min_size=d, max_size=d),
        )
    )
)
def test_membership_routes_agree(data):
    base, periods, v = data
    ls = LinearSet.make(base, periods)
    assert va.member(linearset_automaton(ls), tuple(v)) == diophantine_member(tuple(v), ls)


def test_track_mismatch_is_raised():
    a = va.equation_automaton((1,), 0)
    b = va.equation_automaton((1, 1), 0)
    with pytest.raises(va.TrackMismatch):
        va.product(a, b)
    with pytest.raises(va.TrackMismatch):
        va.union(a, b)


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(0, 4), min_size=d, max_size=d),
            st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), max_size=2),
            st.lists(st.integers(0, 6), min_size=d, max_size=d),
        )
    )
)
def test_padding_closure_property(data):
    base, periods, v = data
    a = linearset_automaton(LinearSet.make(base, periods))

    def word_accepts(word):
        cur = {a.initial}
        for sym in word:
            cur = {d for s in cur for d in a.targets(s, sym)}
        return bool(cur & a.accepting)

    enc = va.encode(tuple(v))
    if word_accepts(enc):
        assert word_accepts(enc + [0])
        assert word_accepts(enc + [0, 0])


def test_two_period_synthesis_is_uncontrolled_at_its_width():
    shape = GinsburgShape((("a",), ("b",), ("c",)))
    ls = LinearSet.make((0, 1, 0), [(1, 1, 0), (0, 1, 2)])
    g = linear_to_grammar(shape, ls)
    assert len(special_productions(g)) == 1
    v = check_uncontrolled(g, 3, Budget(max_steps=60, max_stack=4))
    assert v.is_proven
    grid = {tuple(v_) for v_ in members_up_to(slset(ls), (1, 1, 1), 8)}
    assert enum(g, 8, max_stack=6) == {"".join(ginsburg_apply(shape, v_)) for v_ in grid}
