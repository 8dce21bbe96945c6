"""Counter machines: simulation, reversal collapsing, NFA expansion, and the
counting pipeline, against brute-force word enumeration."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from igkit import fixture_text
from igkit.counters import (
    ZERO,
    NotOneReversal,
    _parikh_table,
    counter_letters,
    expand_to_nfa,
    ncm_run,
    parikh_of_intersection,
    parse_ncm,
    serialize_ncm,
    to_one_reversal,
    validate_ncm,
)
from igkit.engine import Budget, CompiledGrammar, enumerate_language
from igkit.grammar import parse_grammar
from igkit.search import PROVEN, REFUTED, SWEPT, UNKNOWN

from util import (
    SILENT_SIX,
    accepts_via_expansion,
    grammars,
    load,
    oracle_parikh,
    parikh,
    words_upto,
)


def m_fix(name):
    return parse_ncm(fixture_text(name))


def accepts(m, w):
    return ncm_run(m, tuple(w)).is_proven


def audit_run(m, w, trace):
    """Replay an ncm_run trace and report any discipline violation:
    decrement at zero, reversal budget overrun, test mismatch, or a
    non-accepting endpoint. The oracle of ncm_run's witnesses."""
    w = tuple(w)
    problems = []
    state, pos = m.initial, 0
    counters = [0] * m.num_counters
    dirs = [0] * m.num_counters
    revs = [0] * m.num_counters
    for n, (ti, exp_state, exp_pos, exp_counters) in enumerate(trace):
        t = m.transitions[ti]
        if t.src != state:
            problems.append(f"step {n}: transition source {t.src!r} != state {state!r}")
            break
        for i, (ts, c) in enumerate(zip(t.tests, counters)):
            if (ts == ZERO) != (c == 0):
                problems.append(f"step {n}: test {ts!r} fails on counter {i} = {c}")
        if t.letter is not None:
            if pos >= len(w) or w[pos] != t.letter:
                problems.append(f"step {n}: input letter mismatch")
            pos += 1
        for i, d in enumerate(t.deltas):
            if d == -1 and counters[i] == 0:
                problems.append(f"step {n}: decrements counter {i} at zero")
            if d == 1 and dirs[i] == 1:
                revs[i] += 1
                dirs[i] = 0
            elif d == -1 and dirs[i] == 0:
                revs[i] += 1
                dirs[i] = 1
            if revs[i] > m.reversal_bounds[i]:
                problems.append(f"step {n}: counter {i} exceeds {m.reversal_bounds[i]} reversals")
            counters[i] = max(0, counters[i] + d)
        state = t.dst
        if (state, pos, tuple(counters)) != (exp_state, exp_pos, tuple(exp_counters)):
            problems.append(f"step {n}: recorded configuration does not replay")
    if not problems and not (state == m.halt and pos == len(w) and not any(counters)):
        problems.append("trace does not end accepting")
    return problems


# -- simulation -----------------------------------------------------------------


def test_anbn_machine():
    m = m_fix("anbn.ncm")
    assert validate_ncm(m) == []
    assert accepts(m, "aabb")
    assert not accepts(m, "aab")
    assert accepts(m, "")
    assert not accepts(m, "ba")


def test_anbncn_machine():
    m = m_fix("anbncn.ncm")
    assert accepts(m, "abc")
    assert not accepts(m, "abcc")
    assert accepts(m, "aabbcc")
    assert not accepts(m, "aabbc")


def test_no_transition_machine_accepts_nothing():
    m = m_fix("none.ncm")
    for w in words_upto(("a",), 3):
        assert not accepts(m, w)


def test_rejection_is_definite_within_caps():
    res = ncm_run(m_fix("anbn.ncm"), tuple("aab"))
    assert res.kind == REFUTED


def test_run_trace_passes_audit():
    m = m_fix("updown.ncm")
    res = ncm_run(m, tuple("aabbab"))
    assert res.is_proven
    assert audit_run(m, tuple("aabbab"), res.witness) == []


def test_audit_flags_tampered_trace():
    m = m_fix("anbn.ncm")
    res = ncm_run(m, tuple("ab"))
    bad = res.witness[:-1]
    assert audit_run(m, tuple("ab"), bad) != []


# -- reversal collapsing -----------------------------------------------------------


def test_one_reversal_machine_is_untouched():
    m = m_fix("anbn.ncm")
    assert to_one_reversal(m) is m


def test_updown_collapses_to_two_counters():
    m1 = to_one_reversal(m_fix("updown.ncm"))
    assert m1.num_counters == 2
    assert all(b == 1 for b in m1.reversal_bounds)
    assert validate_ncm(m1) == []


@pytest.mark.parametrize("name", ["updown.ncm"])
def test_collapse_preserves_language_to_8(name):
    m = m_fix(name)
    m1 = to_one_reversal(m)
    for w in words_upto(m.alphabet, 8):
        assert accepts(m, w) == accepts(m1, w), w


def test_zero_reversal_counter_keeps_one_piece():
    m = parse_ncm(
        "ncm mono\nstates: s0, f\nalphabet: a\ncounters: 1\nreversals: 0\n"
        "initial: s0\nhalt: f\ntrans: s0, a, tests(z) -> s0, deltas(+)\n"
        "trans: s0, _, tests(z) -> f, deltas(0)\n"
    )
    m1 = to_one_reversal(m)
    assert m1 is m  # bounds <= 1 already


# -- NFA expansion ------------------------------------------------------------------


def test_expansion_requires_one_reversal():
    with pytest.raises(NotOneReversal):
        expand_to_nfa(m_fix("updown.ncm"))


@pytest.mark.parametrize("name,max_len", [("anbn.ncm", 8), ("anbncn.ncm", 8)])
def test_expansion_conditions_exhaustively(name, max_len):
    m = m_fix(name)
    nfa = expand_to_nfa(m)
    for w in words_upto(m.alphabet, max_len):
        expected = accepts(m, w)
        got = accepts_via_expansion(nfa, m.alphabet, m.num_counters, tuple(w)).is_proven
        assert got == expected, w


# (states, transitions) of to_one_reversal, then of expand_to_nfa on its result
@pytest.mark.parametrize("name,collapsed,expanded", [
    ("anbn.ncm", (3, 6), (12, 14)),
    ("anbncn.ncm", (4, 8), (20, 24)),
    ("updown.ncm", (8, 20), (25, 30)),
    ("freeall.ncm", (2, 3), (2, 3)),
    ("none.ncm", (2, 0), (1, 0)),
])
def test_construction_sizes_pinned(name, collapsed, expanded):
    m1 = to_one_reversal(m_fix(name))
    nfa = expand_to_nfa(m1)
    assert (len(m1.states), len(m1.transitions)) == collapsed
    assert (len(nfa.states), len(nfa.transitions)) == expanded
    assert len(set(nfa.states)) == len(nfa.states)


def test_expansion_of_trivial_machine():
    m = parse_ncm(
        "ncm eps\nstates: s0, f\nalphabet: a\ncounters: 0\nreversals:\n"
        "initial: s0\nhalt: f\ntrans: s0, _, tests() -> f, deltas()\n"
    )
    nfa = expand_to_nfa(m)
    assert accepts_via_expansion(nfa, m.alphabet, 0, ()).is_proven
    assert not accepts_via_expansion(nfa, m.alphabet, 0, ("a",)).is_proven


def test_increment_only_machine_accepts_nothing():
    m = parse_ncm(
        "ncm stuck\nstates: s0, f\nalphabet: a\ncounters: 1\nreversals: 1\n"
        "initial: s0\nhalt: f\n"
        "trans: s0, a, tests(z) -> s0, deltas(+)\n"
        "trans: s0, a, tests(p) -> s0, deltas(+)\n"
        "trans: s0, _, tests(z) -> f, deltas(0)\n"
    )
    nfa = expand_to_nfa(m)
    for w in words_upto(("a",), 4):
        want = len(w) == 0  # any a increments and the counter can never drain
        assert accepts_via_expansion(nfa, m.alphabet, 1, tuple(w)).is_proven == want


def test_silent_counter_moves_still_emit_letters():
    # one silent increment per a, drained by a silent loop at the end
    m = parse_ncm(
        "ncm silent\nstates: s0, s1, f\nalphabet: a\ncounters: 1\nreversals: 1\n"
        "initial: s0\nhalt: f\n"
        "trans: s0, a, tests(z) -> s0, deltas(+)\n"
        "trans: s0, a, tests(p) -> s0, deltas(+)\n"
        "trans: s0, _, tests(p) -> s1, deltas(-)\n"
        "trans: s1, _, tests(p) -> s1, deltas(-)\n"
        "trans: s1, _, tests(z) -> f, deltas(0)\n"
        "trans: s0, _, tests(z) -> f, deltas(0)\n"
    )
    nfa = expand_to_nfa(m)
    assert any(label and label.startswith("q#") for _, label, _ in nfa.transitions)
    for n in range(4):
        assert accepts_via_expansion(nfa, m.alphabet, 1, ("a",) * n).is_proven


def test_expansion_is_unknown_when_the_balance_cap_bites():
    m = parse_ncm(SILENT_SIX)
    nfa = expand_to_nfa(m)
    # the default cap (|x| + 4) is below the 6 silent increments
    assert accepts_via_expansion(nfa, m.alphabet, 1, ()).kind == UNKNOWN
    assert accepts_via_expansion(nfa, m.alphabet, 1, (), cap=50).kind == PROVEN
    assert accepts_via_expansion(nfa, m.alphabet, 1, ("a",), cap=50).kind == REFUTED
    assert ncm_run(m, (), counter_cap=50).is_proven


# -- counting pipeline ----------------------------------------------------------------


PIPE_BUDGET = Budget(max_steps=600, max_width=6)


def brute_vectors(g, m, radius, g_budget):
    res = enumerate_language(g, radius, g_budget)
    assert res.info["stop"] == SWEPT
    return tuple(sorted(
        parikh(w, g.terminals) for w in res.witness if ncm_run(m, w).is_proven
    ))


def test_parikh_intersection_anbn():
    g = load("sigmastar_ab.ig")
    m = m_fix("anbn.ncm")
    sample = parikh_of_intersection(g, m, 6, budget=PIPE_BUDGET)
    assert sample.info["stop"] == SWEPT
    assert sample.witness == tuple((n, n) for n in range(4))
    assert sample.witness == brute_vectors(g, m, 6, Budget(max_steps=30))


def test_parikh_intersection_neutral_machine():
    g = load("anbn.ig")
    m = m_fix("freeall.ncm")
    sample = parikh_of_intersection(g, m, 6, budget=PIPE_BUDGET)
    assert sample.witness == brute_vectors(g, m, 6, Budget(max_steps=30))


def test_parikh_intersection_empty_grammar():
    g = parse_grammar(
        "grammar none\nvariables: S\nterminals: a, b\nindices:\nstart: S\n"
    )
    sample = parikh_of_intersection(g, m_fix("anbn.ncm"), 6, budget=PIPE_BUDGET)
    assert sample.witness == ()


# the table against the enumeration route it replaced: (machine, grammar, radius)
BUNDLED = [
    ("anbn.ncm", "sigmastar_ab.ig", 4),
    ("anbn.ncm", "abstar.ig", 4),
    ("anbn.ncm", "anbn.ig", 3),
    ("freeall.ncm", "anbn.ig", 4),
    ("updown.ncm", "abstar.ig", 4),
    ("none.ncm", "astar.ig", 4),
    ("anbncn.ncm", "sigmastar_abc.ig", 2),
]


@pytest.mark.parametrize("width", [None, 1, 2, 3])
@pytest.mark.parametrize("machine,grammar,radius", BUNDLED)
def test_parikh_table_matches_the_enumeration_on_fixtures(machine, grammar, radius, width):
    g, m = load(grammar), m_fix(machine)
    budget = Budget(max_steps=600, max_width=width)
    got = parikh_of_intersection(g, m, radius, budget=budget)
    assert got.info["stop"] == SWEPT
    assert got == oracle_parikh(g, m, radius, budget=budget)


def test_parikh_rejects_a_negative_radius_or_length():
    g, m = load("sigmastar_ab.ig"), m_fix("anbn.ncm")
    for radius, enum_len in ((-1, None), (2, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            parikh_of_intersection(g, m, radius, enum_len=enum_len)


# anbncn.ig pushes in a loop: without a stack cap neither route sweeps, and
# width 1, then 2, cut off the vectors one by one
@pytest.mark.parametrize("stack,width,vectors", [
    (None, None, ((0, 0, 0), (1, 1, 1))),
    (None, 2, ((0, 0, 0),)),
    (3, None, ((0, 0, 0), (1, 1, 1))),
    (3, 1, ()),
    (3, 2, ((0, 0, 0),)),
    (3, 3, ((0, 0, 0), (1, 1, 1))),
])
def test_parikh_table_on_a_grammar_that_pushes(stack, width, vectors):
    g, m = load("anbncn.ig"), m_fix("anbncn.ncm")
    budget = Budget(max_steps=40, max_width=width, max_stack=stack)
    got = parikh_of_intersection(g, m, 3, budget=budget)
    want = oracle_parikh(g, m, 3, budget=budget)
    assert got.witness == want.witness == vectors
    assert (got.info["stop"] == SWEPT) == (stack is not None)
    if stack is None:
        assert got.info["stop"] == want.info["stop"] == "max_steps"


# S -> S S | _ makes one value of every width; without a width cap the
# table keeps one entry per value, as it must to sweep
def test_parikh_table_sweeps_a_nullable_pair_without_a_width_cap():
    g = parse_grammar("grammar pairs\nvariables: S\nterminals: a, b\nindices:\nstart: S\n"
                      "prod: S -> S S\nprod: S -> a\nprod: S -> b\nprod: S -> _\n")
    got = parikh_of_intersection(g, m_fix("anbn.ncm"), 6, budget=Budget(600, hard_cap=5_000))
    assert got.info["stop"] == SWEPT
    assert got.witness == ((0, 0), (1, 1), (2, 2), (3, 3))


@given(grammars(), st.sampled_from(["anbn.ncm", "freeall.ncm", "updown.ncm"]),
       st.integers(0, 3), st.sampled_from([None, 0, 1, 2, 3]), st.sampled_from([None, 1, 2]))
def test_parikh_table_matches_the_enumeration(g, machine, radius, width, stack):
    # a route that swept lists every vector; the other lists no vector beyond it
    m = m_fix(machine)
    budget = Budget(max_steps=10, max_width=width, max_stack=stack, hard_cap=20_000)
    got = parikh_of_intersection(g, m, radius, budget=budget)
    want = oracle_parikh(g, m, radius, budget=budget)
    if got.info["stop"] == SWEPT:
        assert set(want.witness) <= set(got.witness)
    if want.info["stop"] == SWEPT:
        assert set(got.witness) <= set(want.witness)


# S -> A b A A: three children, one of them at two more places
THREE_CHILDREN = parse_grammar("grammar three\nvariables: S, A\nterminals: a, b\nindices:\n"
                               "start: S\nprod: S -> A b A A\nprod: A -> a\nprod: A -> b\n"
                               "prod: A -> _\n")


@given(grammars(), st.integers(0, 5), st.sampled_from([None, 0, 1, 2, 3]), st.integers(0, 2))
@example(THREE_CHILDREN, 4, 3, 0)
def test_parikh_table_counts_the_letters_of_the_word_tables_words(g, length, width, stack):
    # the two tables on one grammar, with rules of three children and rules
    # with a repeated child, which no intersection grammar has; no tree
    # reaches the step cap, which the word table reads as a length
    budget = Budget(max_steps=1000, max_width=width, max_stack=stack, hard_cap=20_000)
    counts, stop = _parikh_table(CompiledGrammar(g), length, budget)
    words = enumerate_language(g, length, budget)
    if stop == words.info["stop"] == SWEPT:
        assert sorted(counts) == sorted({parikh(w, g.terminals) for w in words.witness})


# -- text format ------------------------------------------------------------------------


def test_round_trip():
    for name in ["anbn.ncm", "anbncn.ncm", "updown.ncm", "freeall.ncm", "none.ncm"]:
        m = m_fix(name)
        assert parse_ncm(serialize_ncm(m)) == m


def test_validation_catches_arity():
    from igkit.grammar import ParseError

    with pytest.raises(ParseError):
        parse_ncm(
            "ncm bad\nstates: s, f\nalphabet: a\ncounters: 2\nreversals: 1, 1\n"
            "initial: s\nhalt: f\ntrans: s, a, tests(z) -> f, deltas(+)\n"
        )


def test_counter_letters_order():
    assert counter_letters(2) == ("p#1", "q#1", "p#2", "q#2")


MIXED = """ncm mixed
states: s0, s1, s2, s3, s4, f
alphabet: a, b, c
counters: 2
reversals: 3, 1
initial: s0
halt: f
trans: s0, a, tests(z,z) -> s0, deltas(+,0)
trans: s0, a, tests(p,z) -> s0, deltas(+,0)
trans: s0, b, tests(p,z) -> s1, deltas(-,+)
trans: s1, b, tests(p,p) -> s1, deltas(-,+)
trans: s1, a, tests(z,p) -> s2, deltas(+,0)
trans: s2, a, tests(p,p) -> s2, deltas(+,0)
trans: s2, b, tests(p,p) -> s3, deltas(-,+)
trans: s3, b, tests(p,p) -> s3, deltas(-,+)
trans: s3, c, tests(z,p) -> s4, deltas(0,-)
trans: s4, c, tests(z,p) -> s4, deltas(0,-)
trans: s4, _, tests(z,z) -> f, deltas(0,0)
trans: s0, _, tests(z,z) -> f, deltas(0,0)
"""


def test_mixed_reversal_bounds_collapse():
    # two waves on counter 1 while counter 2 rises across both and drains on c
    m = parse_ncm(MIXED)
    assert validate_ncm(m) == []
    assert accepts(m, "abab" + "cc")
    assert accepts(m, "aabbab" + "ccc")
    assert not accepts(m, "ababc")
    m1 = to_one_reversal(m)
    assert m1.num_counters == 3
    assert validate_ncm(m1) == []
    for w in words_upto(m.alphabet, 7):
        direct = ncm_run(m, tuple(w))
        collapsed = ncm_run(m1, tuple(w))
        assert direct.is_proven == collapsed.is_proven, w
        if direct.is_proven:
            assert audit_run(m, tuple(w), direct.witness) == []


def test_mixed_machine_expansion_conditions():
    m1 = to_one_reversal(parse_ncm(MIXED))
    nfa = expand_to_nfa(m1)
    for w in words_upto(m1.alphabet, 6):
        assert accepts_via_expansion(
            nfa, m1.alphabet, m1.num_counters, tuple(w)
        ).is_proven == ncm_run(m1, tuple(w)).is_proven, w


CARRYOVER = """ncm carry
states: t0, t1, t2, t3, f
alphabet: a, b
counters: 1
reversals: 3
initial: t0
halt: f
trans: t0, a, tests(z) -> t0, deltas(+)
trans: t0, a, tests(p) -> t0, deltas(+)
trans: t0, b, tests(p) -> t1, deltas(-)
trans: t1, b, tests(p) -> t1, deltas(-)
trans: t1, a, tests(p) -> t2, deltas(+)
trans: t1, a, tests(z) -> t2, deltas(+)
trans: t2, a, tests(p) -> t2, deltas(+)
trans: t2, b, tests(p) -> t3, deltas(-)
trans: t3, b, tests(p) -> t3, deltas(-)
trans: t3, _, tests(z) -> f, deltas(0)
trans: t1, _, tests(z) -> f, deltas(0)
trans: t0, _, tests(z) -> f, deltas(0)
"""


def test_partial_drain_carries_over_across_pieces():
    # the first drain may stop early, so both sub-counters of the collapsed
    # machine hold value at once and draining must empty the older one first
    m = parse_ncm(CARRYOVER)
    m1 = to_one_reversal(m)
    assert m1.num_counters == 2
    assert accepts(m, "aababb")   # n=2 j=1 m=1 k=2
    assert not accepts(m, "aabab")
    for w in words_upto(("a", "b"), 8):
        assert ncm_run(m, tuple(w)).is_proven == ncm_run(m1, tuple(w)).is_proven, w
