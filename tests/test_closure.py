"""Closure constructions versus brute-force set oracles.

Every construction is checked on at least seven fixtures (including the empty
language and the ε-language) by comparing output enumerations against the
corresponding set operation applied to input enumerations.
"""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import igkit
from igkit import fixture_text
from igkit.automata import Nfa
from igkit.closure import (
    InvalidAutomaton,
    Morphism,
    NivatTransducer,
    NotNormalized,
    intersect_dfa,
    inverse_morphism,
    inverse_projection,
    is_normalized,
    morphism_image,
    nivat_transduce,
    normalize_rhs,
    union,
)
from igkit.counters import parse_ncm
from igkit.grammar import Production, parse_grammar, serialize_grammar

from util import (
    TERMS,
    clean,
    empty_dfa,
    enum_set,
    grammars,
    image,
    interleavings,
    load,
    make_grammar,
    oracle_intersect_dfa,
    oracle_prune_nonproductive,
    oracle_prune_unreachable,
    parikh_route,
    prune_nonproductive,
    prune_unreachable,
    run_dfa,
    total_dfas,
    universal_dfa,
    validate,
    words_upto,
)

TWIN = dict(stack=3, steps=200)


def cons2():
    # consume production with two rhs variables and a trailing terminal
    return make_grammar(
        "cons2",
        ("S", "A", "B"),
        ("a", "b"),
        ("e",),
        (
            Production("S", ("A",), push_index="e"),
            Production("A", ("a", "B", "B", "b"), lhs_index="e"),
            Production("B", ("b",)),
        ),
        "S",
    )


# ---------------------------------------------------------------------------
# union


UNION_CASES = [
    ("empty.ig", "empty.ig", 5),
    ("empty.ig", "eps.ig", 5),
    ("eps.ig", "astar.ig", 5),
    ("astar.ig", "bstar.ig", 5),
    ("anbn.ig", "abstar.ig", 6),
    ("anbn.ig", "anbn.ig", 6),
    ("abword.ig", "aaword.ig", 4),
    ("mix2.ig", "astar.ig", 5),
]


@pytest.mark.parametrize("left,right,n", UNION_CASES)
def test_union_matches_set_union(left, right, n):
    g1, g2 = load(left), load(right)
    out = union(g1, g2)
    assert validate(out) == []
    assert enum_set(out, n) == enum_set(g1, n) | enum_set(g2, n)


def test_union_renames_apart():
    g = load("anbn.ig")
    out = union(g, g)
    assert not set(out.variables) & set(g.variables)
    assert out.start not in g.variable_set


def test_union_names_avoid_generated_looking_terminals():
    # renaming A to A#1 would make it both a variable and a terminal
    g = parse_grammar(
        "grammar clash\nvariables: A\nterminals: A#1\nindices:\nstart: A\nprod: A -> A#1\n"
    )
    assert validate(g) == []
    out = union(g, g)
    assert validate(out) == []
    assert not set(out.variables) & set(out.terminals)
    assert enum_set(out, 2) == {"A#1"}


# ---------------------------------------------------------------------------
# morphism image


MORPH_CASES = [
    ("anbn.ig", {"a": ("x", "y"), "b": ()}, 10, 20),
    ("anbn.ig", {"a": ("a",), "b": ("b",)}, 8, 8),
    ("astar.ig", {"a": ()}, 4, 8),
    ("astar.ig", {"a": ("a", "a")}, 8, 8),
    ("anbn.ig", {"a": ("b",), "b": ("a",)}, 8, 8),
    ("anbn.ig", {"a": ("c",), "b": ("c",)}, 8, 8),
    ("empty.ig", {"a": ("z",)}, 5, 5),
    ("eps.ig", {"a": ("z",)}, 5, 5),
]


@pytest.mark.parametrize("name,mapping,n,m", MORPH_CASES)
def test_morphism_image_matches_oracle(name, mapping, n, m):
    g = load(name)
    h = Morphism.make(mapping)
    out = morphism_image(g, h)
    assert validate(out) == []
    oracle = {"".join(image(h, w)) for w in enum_set(g, m)}
    assert enum_set(out, n) == {w for w in oracle if len(w) <= n}


def test_identity_morphism_keeps_productions():
    g = load("anbn.ig")
    out = morphism_image(g, Morphism.make({a: (a,) for a in g.terminals}))
    assert out.productions == g.productions


def test_erasing_everything_leaves_eps_language():
    g = load("astar.ig")
    out = morphism_image(g, Morphism.make({"a": ()}))
    assert enum_set(out, 3) == {""}


# ---------------------------------------------------------------------------
# normalize_rhs


NORM_CASES = [
    ("twin.ig", 14, TWIN),
    ("anbncn.ig", 9, dict(stack=4, steps=200)),
    ("mix2.ig", 6, {}),
    ("anbn.ig", 8, {}),
    ("abword.ig", 4, {}),
    ("empty.ig", 4, {}),
    ("eps.ig", 4, {}),
]


@pytest.mark.parametrize("name,n,kw", NORM_CASES)
def test_normalize_preserves_language(name, n, kw):
    g = load(name)
    out = normalize_rhs(g)
    assert validate(out) == []
    assert is_normalized(out)
    assert enum_set(out, n, **kw) == enum_set(g, n, **kw)


def test_normalize_consume_production():
    g = cons2()
    out = normalize_rhs(g)
    assert is_normalized(out)
    assert enum_set(out, 6) == enum_set(g, 6) == {"abbb"}


def test_normalize_is_identity_on_normal_grammars():
    g = load("anbn.ig")
    assert normalize_rhs(g).productions == g.productions


def test_fresh_chain_variables_do_not_collide():
    g = load("mix2.ig")
    out = normalize_rhs(g)
    new = set(out.variables) - set(g.variables)
    assert new and all(v.startswith("Z#") for v in new)
    again = normalize_rhs(out)
    assert again.productions == out.productions


# ---------------------------------------------------------------------------
# intersection with a DFA


def dollar_dfa():
    """Exactly one $，preceded by at least one a."""
    ts = []
    for src, sym, dst in [
        ("q0", "a", "qa"), ("q0", "b", "q0"), ("q0", "c", "q0"), ("q0", "$", "dead"),
        ("qa", "a", "qa"), ("qa", "b", "qa"), ("qa", "c", "qa"), ("qa", "$", "q1"),
        ("q1", "a", "q1"), ("q1", "b", "q1"), ("q1", "c", "q1"), ("q1", "$", "dead"),
        ("dead", "a", "dead"), ("dead", "b", "dead"), ("dead", "c", "dead"), ("dead", "$", "dead"),
    ]:
        ts.append((src, sym, dst))
    return Nfa(("q0", "qa", "q1", "dead"), ("a", "b", "c", "$"), "q0",
               frozenset({"q1"}), tuple(ts), name="one_dollar")


def contains_aa_dfa(alphabet=("a", "b")):
    ts = []
    for sym in alphabet:
        ts.append(("s0", sym, "s1" if sym == "a" else "s0"))
        ts.append(("s1", sym, "s2" if sym == "a" else "s0"))
        ts.append(("s2", sym, "s2"))
    return Nfa(("s0", "s1", "s2"), tuple(alphabet), "s0", frozenset({"s2"}), tuple(ts), name="has_aa")


def ends_b_dfa():
    ts = [("s0", "a", "s0"), ("s0", "b", "s1"), ("s1", "a", "s0"), ("s1", "b", "s1")]
    return Nfa(("s0", "s1"), ("a", "b"), "s0", frozenset({"s1"}), tuple(ts), name="ends_b")


def even_a_dfa():
    ts = [("e", "a", "o"), ("o", "a", "e")]
    return Nfa(("e", "o"), ("a",), "e", frozenset({"e"}), tuple(ts), name="even_a")


INTERSECT_CASES = [
    ("twin.ig", dollar_dfa, 14, TWIN),
    ("anbn.ig", lambda: universal_dfa(("a", "b")), 8, {}),
    ("anbn.ig", lambda: empty_dfa(("a", "b")), 8, {}),
    ("anbn.ig", contains_aa_dfa, 8, {}),
    ("abstar.ig", ends_b_dfa, 6, {}),
    ("astar.ig", even_a_dfa, 6, {}),
    ("mix2.ig", lambda: contains_aa_dfa(("a", "b", "c")), 6, {}),
    ("eps.ig", lambda: universal_dfa(("a",)), 4, {}),
]


@pytest.mark.parametrize("name,mk,n,kw", INTERSECT_CASES)
def test_intersection_matches_filtered_enumeration(name, mk, n, kw):
    g = normalize_rhs(load(name))
    d = mk()
    out = intersect_dfa(g, d)
    assert validate(out) == []
    oracle = {w for w in enum_set(g, n, **kw) if run_dfa(d, w) in d.accepting}
    assert enum_set(out, n, **kw) == oracle


def test_twin_dollar_intersection_value():
    out = intersect_dfa(normalize_rhs(load("twin.ig")), dollar_dfa())
    assert enum_set(out, 14, **TWIN) == {"abc$abc", "aabbcc$aabbcc"}


def test_intersect_requires_normal_form():
    with pytest.raises(NotNormalized):
        intersect_dfa(load("twin.ig"), dollar_dfa())


# automata over astar.ig's one terminal `a` that are not total and deterministic over it
NOT_TOTAL_DFAS = {
    "epsilon-move": (("s",), ("a",), (("s", "a", "s"), ("s", None, "s"))),
    "two-targets": (("s", "t"), ("a",), (("s", "a", "s"), ("s", "a", "t"), ("t", "a", "t"))),
    "missing-move": (("s", "t"), ("a",), (("s", "a", "t"),)),
    "terminal-outside-alphabet": (("s",), ("b",), (("s", "b", "s"),)),
}


@pytest.mark.parametrize("states,alphabet,moves", NOT_TOTAL_DFAS.values(), ids=NOT_TOTAL_DFAS)
def test_intersect_requires_total_dfa(states, alphabet, moves):
    bad = Nfa(states, alphabet, "s", frozenset({"s"}), moves, name="bad")
    with pytest.raises(InvalidAutomaton):
        intersect_dfa(load("astar.ig"), bad)


IG_FIXTURES = sorted(p.name for p in (Path(igkit.__file__).parent / "fixtures").glob("*.ig"))


@pytest.mark.parametrize("name", IG_FIXTURES)
@given(data=st.data())
def test_intersection_is_the_cleaned_full_product(name, data):
    g = normalize_rhs(load(name))
    d = data.draw(total_dfas(g.terminals))
    assert serialize_grammar(intersect_dfa(g, d)) == serialize_grammar(oracle_intersect_dfa(g, d))


@given(grammars(), total_dfas(TERMS))
def test_intersection_is_the_cleaned_full_product_on_random_grammars(g, d):
    g = normalize_rhs(g)
    assert serialize_grammar(intersect_dfa(g, d)) == serialize_grammar(oracle_intersect_dfa(g, d))


# the automata of parikh_of_intersection, far larger than the drawn ones
@pytest.mark.parametrize("machine,grammar,states", [
    ("anbncn.ncm", "sigmastar_abc.ig", 13),
    ("updown.ncm", "abstar.ig", 14),
    ("anbn.ncm", "sigmastar_ab.ig", 8),
])
def test_intersection_is_the_cleaned_full_product_on_parikh_routes(machine, grammar, states):
    g, d, _ = parikh_route(load(grammar), parse_ncm(fixture_text(machine)))
    assert len(d.states) == states
    assert serialize_grammar(intersect_dfa(g, d)) == serialize_grammar(oracle_intersect_dfa(g, d))


def test_intersect_replaces_index_alphabet_with_copies():
    out = intersect_dfa(normalize_rhs(load("anbncn.ig")), universal_dfa(("a", "b", "c")))
    assert all(i.endswith("#i") for i in out.indices)


# ---------------------------------------------------------------------------
# inverse projection


INVPROJ_CASES = [
    ("abword.ig", ("a", "b", "x"), 4),
    ("anbn.ig", ("a", "b"), 6),
    ("empty.ig", ("a", "x"), 4),
    ("eps.ig", ("a", "x"), 4),
    ("aaword.ig", ("a", "x", "y"), 4),
    ("astar.ig", ("a", "x"), 4),
    ("abstar.ig", ("a", "b", "x"), 5),
]


@pytest.mark.parametrize("name,ext,n", INVPROJ_CASES)
def test_inverse_projection_matches_oracle(name, ext, n):
    g = load(name)
    out = inverse_projection(g, ext)
    assert validate(out) == []
    base = enum_set(g, n)
    pads = [c for c in ext if c not in set(g.terminals)]
    oracle = set()
    for w in base:
        oracle |= interleavings(w, pads, n)
    assert enum_set(out, n) == oracle


def test_inverse_projection_sound_direction():
    g = load("anbn.ig")
    out = inverse_projection(g, ("a", "b", "x"))
    lang = enum_set(g, 6)
    for w in enum_set(out, 6):
        assert w.replace("x", "") in lang


def test_inverse_projection_with_no_new_letters_is_identity():
    g = load("anbn.ig")
    out = inverse_projection(g, ("a", "b"))
    assert enum_set(out, 8) == enum_set(g, 8)


# ---------------------------------------------------------------------------
# rational transduction


def pair_rel(pairs, source, target, name="rel"):
    """(w_src w_tgt | ...)* as an NFA: spell the source word then the target word."""
    states = ["r0"]
    trans = []
    for pi, (ws, wt) in enumerate(pairs):
        prev = "r0"
        seq = list(ws) + list(wt)
        for i, ltr in enumerate(seq):
            nxt = "r0" if i == len(seq) - 1 else f"r{pi}_{i}"
            if nxt != "r0":
                states.append(nxt)
            trans.append((prev, ltr, nxt))
            prev = nxt
    return Nfa(tuple(states), tuple(source) + tuple(target), "r0",
               frozenset({"r0"}), tuple(trans), name=name)


def tau_identity_ab():
    rel = pair_rel([(("a",), ("a#c",)), (("b",), ("b#c",))], ("a", "b"), ("a#c", "b#c"))
    return NivatTransducer(("a", "b"), ("a#c", "b#c"), rel,
                           output_rename=(("a#c", "a"), ("b#c", "b")), name="id")


def tau_erase_b():
    rel = pair_rel([(("a",), ("a#c",)), (("b",), ())], ("a", "b"), ("a#c",))
    return NivatTransducer(("a", "b"), ("a#c",), rel,
                           output_rename=(("a#c", "a"),), name="erase_b")


def tau_subst_cdd():
    rel = pair_rel([(("a",), ("c",)), (("b",), ("d", "d"))], ("a", "b"), ("c", "d"))
    return NivatTransducer(("a", "b"), ("c", "d"), rel, name="a2c_b2dd")


def tau_swap():
    rel = pair_rel([(("a",), ("b#c",)), (("b",), ("a#c",))], ("a", "b"), ("a#c", "b#c"))
    return NivatTransducer(("a", "b"), ("a#c", "b#c"), rel,
                           output_rename=(("a#c", "a"), ("b#c", "b")), name="swap")


def tau_drop_some_a():
    rel = pair_rel([(("a",), ("x",)), (("a",), ())], ("a",), ("x",))
    return NivatTransducer(("a",), ("x",), rel, name="some_a")


def tau_eps_pad():
    rel = Nfa(("r0",), ("a", "x"), "r0", frozenset({"r0"}), (("r0", "x", "r0"),), name="xloop")
    return NivatTransducer(("a",), ("x",), rel, name="xpad")


def oracle_transduce(words, tau, n):
    # a relation word for (w, x) has length |w| + |x| <= |w| + n
    rename = dict(tau.output_rename or ())
    targets = set(tau.target)
    out = set()
    for w in words:
        for u in _rel_matches(tau, w, len(w) + n):
            x = "".join(rename.get(c, c) for c in u if c in targets)
            if len(x) <= n:
                out.add(x)
    return out


def _rel_matches(tau, w, max_len):
    """All relation words (as symbol tuples) whose source projection is w."""
    src = set(tau.source)
    results = []

    def rec(state, consumed, word):
        if len(word) > max_len:
            return
        if consumed == len(w) and state in tau.rel.accepting:
            results.append(word)
        for s2, label, d2 in tau.rel.transitions:
            if s2 != state:
                continue
            if label is None:
                rec(d2, consumed, word)
            elif label in src:
                if consumed < len(w) and w[consumed] == label:
                    rec(d2, consumed + 1, word + (label,))
            else:
                rec(d2, consumed, word + (label,))

    rec(tau.rel.initial, 0, ())
    return results


# (grammar, transducer, N = output length bound, M = input enumeration bound,
#  width = enumeration width cap; sufficient because the pipeline grammars
#  derive every word of length <= N within nesting-depth + 2 variables)
TRANSDUCE_CASES = [
    ("anbn.ig", tau_identity_ab, 6, 6, 6),
    ("anbn.ig", tau_erase_b, 6, 12, 9),
    ("anbn.ig", tau_subst_cdd, 9, 6, 4),
    ("anbn.ig", tau_swap, 6, 6, 6),
    ("astar.ig", tau_drop_some_a, 5, 5, 4),
    ("empty.ig", tau_eps_pad, 4, 4, 4),
    ("eps.ig", tau_eps_pad, 4, 4, 4),
]


@pytest.mark.parametrize("name,mk,n,m,width", TRANSDUCE_CASES)
def test_transduction_matches_oracle(name, mk, n, m, width):
    g = load(name)
    tau = mk()
    out = nivat_transduce(g, tau)
    assert validate(out) == []
    oracle = set()
    for w in enum_set(g, m):
        oracle |= set(oracle_transduce({w}, tau, n))
    assert enum_set(out, n, steps=800, width=width) == oracle


# ---------------------------------------------------------------------------
# inverse morphism


INVMORPH_CASES = [
    ("abstar.ig", {"x": ("a", "b")}, 5, 10, 8),
    ("anbn.ig", {"a": ("a",), "b": ("b",)}, 6, 6, 6),
    ("aaword.ig", {"x": ("a",), "y": ("a",)}, 2, 2, 4),
    ("eps.ig", {"x": ()}, 4, 1, 4),
    ("anbn.ig", {"x": ("a", "b"), "y": ("b",)}, 3, 8, 6),
    ("empty.ig", {"x": ("a",)}, 3, 3, 4),
    ("anbn.ig", {"x": ("a",), "y": ("b",)}, 6, 6, 6),
]


@pytest.mark.parametrize("name,mapping,n,m,width", INVMORPH_CASES)
def test_inverse_morphism_matches_oracle(name, mapping, n, m, width):
    g = load(name)
    h = Morphism.make(mapping)
    out = inverse_morphism(g, h)
    assert validate(out) == []
    lang = enum_set(g, m)
    oracle = {
        x for x in words_upto(tuple(mapping), n)
        if "".join(image(h, x)) in lang and len(image(h, x)) <= m
    }
    assert enum_set(out, n, steps=800, width=width) == oracle


def test_inverse_identity_morphism_preserves_language():
    g = load("anbn.ig")
    out = inverse_morphism(g, Morphism.make({"a": ("a",), "b": ("b",)}))
    assert enum_set(out, 6, steps=800, width=6) == enum_set(g, 6)


# ---------------------------------------------------------------------------
# plumbing


def test_prune_unreachable_drops_dead_variables():
    g = make_grammar(
        "dead",
        ("S", "D"),
        ("a",),
        ("e",),
        (Production("S", ("a",)), Production("D", ("D",), push_index="e")),
        "S",
    )
    out = prune_unreachable(g)
    assert out.variables == ("S",)
    assert out.indices == ()
    assert enum_set(out, 3) == enum_set(g, 3)


PRUNES = [
    (prune_unreachable, oracle_prune_unreachable),
    (prune_nonproductive, oracle_prune_nonproductive),
    (clean, lambda g: oracle_prune_unreachable(oracle_prune_nonproductive(g))),
]


@pytest.mark.parametrize("name", IG_FIXTURES)
def test_pruning_matches_the_fixpoints_on_fixtures(name):
    g = load(name)
    for prune, oracle in PRUNES:
        assert prune(g) == oracle(g)


@given(grammars())
def test_pruning_matches_the_fixpoints_on_random_grammars(g):
    for prune, oracle in PRUNES:
        assert prune(g) == oracle(g)


def test_constructions_compose():
    g = union(load("anbn.ig"), load("abstar.ig"))
    g = normalize_rhs(g)
    g = intersect_dfa(g, contains_aa_dfa())
    assert validate(g) == []
    expected = {w for w in (enum_set(load("anbn.ig"), 6) | enum_set(load("abstar.ig"), 6)) if "aa" in w}
    assert enum_set(g, 6) == expected


def test_inverse_projection_fresh_names_and_reapplication():
    g = load("anbn.ig")
    once = inverse_projection(g, ("a", "b", "x"))
    assert not (set(once.variables) - set(g.variables)) & set(g.variables)
    assert all(v.startswith("Y#") for v in set(once.variables) - set(g.variables))
    twice = inverse_projection(once, ("a", "b", "x", "y"))
    assert validate(twice) == []
    assert len(set(twice.variables)) == len(twice.variables)


def test_morphism_preserves_min_widths_when_injective():
    from igkit.engine import Budget, min_index

    g = load("anbncn.ig")
    h = Morphism.make({"a": ("x",), "b": ("y",), "c": ("z",)})
    out = morphism_image(g, h)
    budget = Budget(max_steps=200, max_stack=3)
    for w in sorted(enum_set(g, 6, stack=3)):
        got = min_index(out, image(h, w), budget)
        want = min_index(g, tuple(w), budget)
        assert got.is_proven and want.is_proven
        assert got.info["k"] == want.info["k"], w


def test_deep_composition_chain():
    # pad, normalize, filter by an automaton, erase the padding, then union
    g = inverse_projection(load("abword.ig"), ("a", "b", "x"))
    g = normalize_rhs(g)
    d = universal_dfa(("a", "b", "x"))
    g = intersect_dfa(g, d)
    g = morphism_image(g, Morphism.make({"a": ("a",), "b": ("b",), "x": ()}))
    g = union(g, load("eps.ig"))
    assert validate(g) == []
    assert enum_set(g, 3, steps=600) == {"", "ab"}
