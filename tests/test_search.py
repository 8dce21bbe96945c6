"""The budgeted-search driver, the soundness of minimums under the hard cap,
and the words, verdicts, counts and witnesses every search gives on the
fixtures (pinned values)."""

import math

import pytest
from hypothesis import example, given, strategies as st

from igkit import engine, fixture_text, replace
from igkit import semilinear as sl
from igkit import vector_automata as va
from igkit.cli import OUTCOME, main, parse_report
from igkit.counters import ncm_run, parse_ncm
from igkit.engine import (
    Budget,
    check_uncontrolled,
    enumerate_language,
    membership,
    min_index,
)
from igkit.etol import parse_etol
from igkit.grammar import parse_grammar, replay
from igkit.search import (
    EXPAND,
    FOUND,
    GOAL,
    HARD_CAP,
    LEAF,
    MAX_STEPS,
    REFUTED,
    SWEPT,
    UNKNOWN,
    bfs,
    explore,
    moves,
    reach,
)

from util import (
    TERMS,
    etol_min_index,
    grammars,
    oracle_enumerate,
    oracle_membership,
    path,
    per_k_min_index,
    rendered,
    search_enumerate,
    search_membership,
    special_count,
    special_count_min,
)


def g_fix(name):
    return parse_grammar(fixture_text(name))


# -- the driver -------------------------------------------------------------------------

# n -> n+1 and n -> 2n, below 20
def doubling(n):
    return [(op, m) for op, m in (("inc", n + 1), ("dbl", 2 * n)) if m < 20]


def test_bfs_sweeps_the_whole_space():
    s = bfs(1, doubling, 100, 100)
    assert s.stop == SWEPT and s.goal is None
    assert set(s.parents) == set(range(1, 20))


def test_bfs_finds_a_goal_and_rebuilds_the_shortest_path():
    s = bfs(1, doubling, 100, 100, lambda n: GOAL if n == 12 else EXPAND)
    assert s.stop == FOUND and s.goal == 12
    assert path(s.parents, 12) == [1, 2, 3, 6, 12]
    assert moves(s.parents, 12) == [("inc", 2), ("inc", 3), ("dbl", 6), ("dbl", 12)]


def test_bfs_visits_the_start():
    s = bfs(1, doubling, 100, 100, lambda n: GOAL)
    assert s.stop == FOUND and s.goal == 1 and moves(s.parents, 1) == []


def test_bfs_leaves_are_stored_but_not_expanded():
    s = bfs(1, doubling, 100, 100, lambda n: LEAF if n == 2 else EXPAND)
    assert s.stop == SWEPT
    assert set(s.parents) == {1, 2}  # both moves from 1 lead to 2


def test_bfs_step_cap():
    s = bfs(1, doubling, 2, 100)
    assert s.stop == MAX_STEPS and set(s.parents) == {1, 2, 3, 4}
    assert bfs(1, doubling, 0, 100).stop == MAX_STEPS


def test_bfs_hard_cap_counts_stored_nodes():
    for cap in range(1, 19):
        s = bfs(1, doubling, math.inf, cap)
        assert s.stop == HARD_CAP and len(s.parents) == cap
    assert bfs(1, doubling, math.inf, 19).stop == SWEPT


def test_explore_stores_in_bfs_order_and_lists_every_edge():
    nodes, edges = explore([5, 1, 5], doubling)
    # the starts first, then level by level
    assert nodes == [5, 1, 6, 10, 2, 7, 12, 11, 3, 4, 8, 14, 13, 9, 16, 15, 18, 17, 19]
    assert edges == [(n, *step) for n in nodes for step in doubling(n)]
    assert explore([1], doubling)[0] == list(bfs(1, doubling, math.inf, math.inf).parents)
    # a repeated successor tuple is a repeated edge
    assert explore([1], lambda n: [("x", 2)] * 2 if n == 1 else []) == ([1, 2], [(1, "x", 2)] * 2)
    assert explore([], doubling) == ([], [])
    # reach gives the same nodes, and expands each once
    expanded = []
    assert reach([5, 1, 5], lambda n: expanded.append(n) or doubling(n)) == nodes == expanded
    assert reach([], doubling) == []


# -- the ranked search ------------------------------------------------------------------

# (n, rank) states: n -> n+1 keeps the rank at least 1, n -> 2n raises it
# to 2, and 12 -> 0, the goal, keeps it
def ranked_doubling(state):
    n, r = state
    out = [(op, (m, max(r, w))) for op, m, w in (("inc", n + 1, 1), ("dbl", 2 * n, 2))
           if 0 < m < 20]
    return out + [("end", (0, r))] if n == 12 else out


def test_ranked_bfs_takes_the_least_rank_then_the_shortest_path():
    def visit(state):
        return GOAL if state[0] == 0 else EXPAND

    s = bfs((1, 1), ranked_doubling, 100, 1000, visit, rank=True)
    assert s.goal == (0, 1) and [n for n, _ in path(s.parents, s.goal)] == [*range(1, 13), 0]
    # eleven increments and the end are too many for ten levels: the
    # shortest path of rank 2
    s = bfs((1, 1), ranked_doubling, 10, 1000, visit, rank=True)
    assert s.goal == (0, 2)
    assert moves(s.parents, s.goal) == [
        ("inc", (2, 1)), ("inc", (3, 1)), ("dbl", (6, 2)), ("dbl", (12, 2)), ("end", (0, 2))]


def test_moves_are_the_ones_the_search_took():
    # each call labels its moves with the call's number, so a second
    # expansion of a node would give other labels
    calls = []

    def counting(state):
        calls.append(state)
        return [((len(calls), op), child) for op, child in ranked_doubling(state)]

    def visit(state):
        return GOAL if state[0] == 0 else EXPAND

    for rank in (False, True):
        calls.clear()
        s = bfs((1, 1), counting, 10, 1000, visit, rank=rank)
        taken = moves(s.parents, s.goal)
        assert len(calls) == len(set(calls))  # each stored state expanded once
        expanded = path(s.parents, s.goal)[:-1]
        assert [label[0] for label, _ in taken] == [calls.index(a) + 1 for a in expanded]
        assert [op for (_, op), _ in taken] == ["inc", "inc", "dbl", "dbl", "end"]


def test_ranked_bfs_sweeps_by_key():
    # f waits at the last level under rank 1 (s, x, f), and is expanded one
    # level earlier under rank 2 (s, f), into the leaf g: nothing is left to
    # expand
    edges = {"s": [("x", 1), ("f", 2)], "x": [("f", 1)], "f": [("g", 1)]}

    def successors(state):
        key, r = state
        return [((k, max(r, w)),) for k, w in edges[key]]

    def visit(state):
        return LEAF if state[0] == "g" else EXPAND

    s = bfs(("s", 1), successors, 2, 100, visit, rank=True)
    assert s.stop == SWEPT and ("f", 1) in s.parents
    assert bfs(("s", 1), successors, 1, 100, visit, rank=True).stop == MAX_STEPS
    assert bfs(("s", 1), successors, 0, 100, visit, rank=True).stop == MAX_STEPS
    # the hard cap counts stored states
    s = bfs(("s", 1), successors, 2, 4, visit, rank=True)
    assert s.stop == HARD_CAP and len(s.parents) == 4


@st.composite
def graphs(draw):
    """At most 8 nodes 0, 1, ...: the successors of each, in order and with
    repeats, and what `visit` answers for each."""
    n = draw(st.integers(1, 8))
    edges = [draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)]
    return edges, [draw(st.sampled_from((EXPAND, LEAF, GOAL))) for _ in range(n)]


# 0 stores 2 before 1: both wait at level 1, and 2 goes first, storing 3
@example(([[2, 1], [3], [3], []], [EXPAND] * 4), 6, 20)
@given(graphs(), st.integers(0, 6), st.integers(1, 20))
def test_one_rank_is_the_breadth_first_search(graph, max_steps, hard_cap):
    edges, acts = graph
    runs = []
    for rank in (False, True):
        expanded = []

        def successors(node):
            expanded.append(node)
            return [((m, 0),) for m in edges[node[0]]]

        s = bfs((0, 0), successors, max_steps, hard_cap, lambda node: acts[node[0]], rank)
        runs.append((s.stop, s.goal, list(s.parents.items()), expanded))
    assert runs[0] == runs[1]


# S -> S1 | Y Z, S1 -> S2, S2 -> S3, S3 -> X, Y -> _, Z -> X, X -> P Q,
# P -> a, Q -> b: X is reached in four steps at index 1 (through S1, S2, S3)
# and in three at index 2 (through Y Z), and only the second path derives ab
# within six steps. A search that keeps one index per form expands X at index
# 1 and runs out of levels (at width 3 it takes S -> Y Z -> Y X -> Y P Q and
# reports 3); one that never moves a stored state to a lower level keeps P Q
# at the level the index-1 path gave it, and runs out of levels too.
EXACTNESS = (
    "grammar exact\nvariables: S, S1, S2, S3, X, Y, Z, P, Q\nterminals: a, b\nindices:\n"
    "start: S\nprod: S -> S1\nprod: S -> Y Z\nprod: S1 -> S2\nprod: S2 -> S3\n"
    "prod: S3 -> X\nprod: Y -> _\nprod: Z -> X\nprod: X -> P Q\nprod: P -> a\nprod: Q -> b\n"
)


@pytest.mark.parametrize("width", [2, 3])
def test_ranked_search_keeps_every_index_of_a_form(tmp_path, capsys, width):
    p = tmp_path / "exact.ig"
    p.write_text(EXACTNESS)
    caps = ["--max-steps", "6", "--max-width", str(width)]
    assert main(["member", str(p), "ab", *caps]) == 0
    assert main(["min-index", str(p), "ab", *caps]) == 0
    member, least = parse_report(capsys.readouterr().out)
    assert member["status"] == "proven" and least["min_index"] == "2"
    v = membership(parse_grammar(EXACTNESS), ("a", "b"), Budget(max_steps=6, max_width=width))
    assert v.witness.index() == 2 and len(v.witness.steps) == 6


def test_min_index_is_one_search_under_a_width_cap(monkeypatch):
    # the search at width 5 and a search at each k below its witness's index
    # stored 1,145 forms; the ranked search stores 130 states
    forms = []
    real = engine.membership
    monkeypatch.setattr(engine, "membership",
                        lambda *a, **kw: forms.append((v := real(*a, **kw)).info["forms"]) or v)
    v = min_index(g_fix("ramp.ig"), tuple("abaabaaabaaaa"),
                  Budget(max_steps=60, max_width=5, max_stack=5))
    assert v.info == {"k": 3, "stop": FOUND} and forms == [130]


def _same_answer(ours, theirs, keys):
    assert (ours.kind, *(ours.info.get(k) for k in keys)) == (
        theirs.kind, *(theirs.info.get(k) for k in keys))


RANKED_BUDGETS = st.builds(Budget, max_steps=st.integers(0, 12),
                           max_width=st.sampled_from((None, 0, 1, 2, 3, 4)),
                           max_stack=st.sampled_from((None, 1, 2, 3)), hard_cap=st.just(5000))


@given(grammars(), RANKED_BUDGETS, st.lists(st.sampled_from(TERMS), max_size=4).map(tuple))
def test_ranked_search_answers_as_the_unranked_one(g, budget, w):
    # the kind and stop of membership, and the kind, minimum and stop of
    # min_index, are those of the unranked search and of the search at each
    # k; the witnesses replay within max_steps, min_index's with index k and
    # as short as the search at width k finds it
    ours, theirs = membership(g, w, budget, True), search_membership(g, w, budget, True)
    if HARD_CAP in (ours.info["stop"], theirs.info["stop"]):
        return
    _same_answer(ours, theirs, ("stop",))
    least, per_k = min_index(g, w, budget, True), per_k_min_index(g, w, budget, True)
    if HARD_CAP not in (least.info["stop"], per_k.info["stop"]):
        _same_answer(least, per_k, ("k", "stop"))
    for v in (ours, least):
        if v.is_proven:
            assert replay(g, v.witness).yield_word() == w
            assert len(v.witness.steps) <= budget.max_steps
    if least.is_proven:
        assert least.witness.index() == least.info["k"]
        if per_k.is_proven:
            assert len(least.witness.steps) == len(per_k.witness.steps)
        if budget.max_width is not None:
            assert ours.witness.index() == least.info["k"]


# -- minimums stay sound under the hard cap -----------------------------------------------

# "aa" has a short derivation of width 2 (S -> A A) and a long one of width 1
# through the chain P1 -> ... -> P20; the width-1 search needs 22 forms.
CHAIN = (
    "grammar chain\nvariables: S, A, " + ", ".join(f"P{i}" for i in range(1, 21))
    + "\nterminals: a\nindices:\nstart: S\nprod: S -> A A\nprod: A -> a\nprod: S -> P1\n"
    + "".join(f"prod: P{i} -> P{i + 1}\n" for i in range(1, 20)) + "prod: P20 -> a a\n"
)
CHAIN_ETOL = (
    "etol chain\naxiom: S\nterminals: a\ntable split:\nrule: S -> A A\nrule: A -> a\n"
    "table chain:\nrule: S -> P1\n"
    + "".join(f"rule: P{i} -> P{i + 1}\n" for i in range(1, 20)) + "rule: P20 -> a a\n"
)
AA = ("a", "a")
CHAIN_BUDGET = Budget(max_steps=40)


def test_min_index_is_unknown_when_the_hard_cap_cuts_a_smaller_k():
    g = parse_grammar(CHAIN)
    assert min_index(g, AA, CHAIN_BUDGET).info["k"] == 1
    capped = replace(CHAIN_BUDGET, hard_cap=10)
    full = membership(g, AA, capped)
    assert full.is_proven and full.witness.index() == 2  # the uncapped search fits
    assert membership(g, AA, replace(capped, max_width=1)).info["stop"] == HARD_CAP
    assert min_index(g, AA, capped).kind == UNKNOWN


def test_min_index_cli_reports_unknown_under_the_hard_cap(tmp_path, capsys):
    p = tmp_path / "chain.ig"
    p.write_text(CHAIN)
    code = main(["min-index", str(p), "aa", "--max-steps", "40", "--hard-cap", "10"])
    assert code == 3
    report = parse_report(capsys.readouterr().out)[0]
    assert report["status"] == "unknown" and report["stopped_by"] == "hard_cap"


def test_etol_min_index_is_unknown_when_the_hard_cap_cuts_a_smaller_cap():
    s = parse_etol(CHAIN_ETOL)
    assert etol_min_index(s, AA, CHAIN_BUDGET).info["k"] == 1
    assert etol_min_index(s, AA, replace(CHAIN_BUDGET, hard_cap=8)).kind == UNKNOWN


def test_special_count_min_is_unknown_when_the_hard_cap_cuts_the_search():
    g = parse_grammar(CHAIN)
    v = special_count_min(g, AA, CHAIN_BUDGET)
    assert v.info["k"] == 0 == special_count(g, v.witness)
    # the derivation through S -> A A (one special) is found before the cap bites
    assert special_count_min(g, AA, replace(CHAIN_BUDGET, hard_cap=10)).kind == UNKNOWN


# -- pinned fixture values ------------------------------------------------------------------

# `forms` is the count of the all-orders search (the oracle in util.py).
# `forms_default` is the count of the engine: without a width cap only the
# leftmost variable is rewritten, and with one only the deepest sibling group
# (subtree order), so it stores far fewer forms. The test ids leave
# `forms_default` out.
ENUMERATIONS = [
    ("twin.ig", 19, Budget(max_steps=400, max_stack=4),
     ["$", "abc$abc", "aabbcc$aabbcc", "aaabbbccc$aaabbbccc"], True, 96829, 79),
    ("twin.ig", 14, Budget(max_steps=60, max_stack=3), ["$", "abc$abc", "aabbcc$aabbcc"], True,
     18703, 49),
    ("twin.ig", 10, Budget(max_steps=8, max_stack=3), [], False, 994, 22),
    ("ramp.ig", 13, Budget(max_steps=120, max_width=4, max_stack=5),
     ["abaa", "abaabaaa", "abaabaaabaaaa"], True, 3532, 71),
    ("anbncn.ig", 12, Budget(max_steps=400, max_stack=5),
     ["", "abc", "aabbcc", "aaabbbccc", "aaaabbbbcccc"], True, 446, 56),
    ("mix2.ig", 6, Budget(max_steps=60), ["", "abc", "aabcbc", "ababcc"], True, 22, 12),
]


@pytest.mark.parametrize(
    "name,n,budget,words,swept,forms,forms_default", ENUMERATIONS,
    ids=[f"{r[0]}-{r[1]}-budget{i}-words{i}-{r[4]}-{r[5]}" for i, r in enumerate(ENUMERATIONS)])
def test_enumeration_pinned(name, n, budget, words, swept, forms, forms_default):
    for search, count in ((oracle_enumerate, forms), (enumerate_language, forms_default)):
        res = search(g_fix(name), n, budget)
        assert list(rendered(res)) == words
        assert (res.info["stop"] == SWEPT) == swept
        assert res.info["forms"] == count


# the enumerations that stay on the search: no width cap (leftmost order), and
# a width cap on a grammar that pushes, without a stack cap (subtree order),
# where a table could not stop the push loop
STAY_ON_THE_SEARCH = [
    ("twin.ig", 10, Budget(max_steps=60, max_stack=3), ["$", "abc$abc"], 44),
    ("ramp.ig", 13, Budget(max_steps=120, max_width=4),
     ["abaa", "abaabaaa", "abaabaaabaaaa"], 759),
]


@pytest.mark.parametrize("name,n,budget,words,forms", STAY_ON_THE_SEARCH,
                         ids=[r[0] for r in STAY_ON_THE_SEARCH])
def test_enumerations_that_stay_on_the_search(name, n, budget, words, forms):
    res = enumerate_language(g_fix(name), n, budget)
    assert res == search_enumerate(g_fix(name), n, budget)
    assert list(rendered(res)) == words and res.info == {"stop": SWEPT, "forms": forms}


def test_deepening_expands_each_pair_once(monkeypatch):
    # without a stack cap the width table grows at depth caps 1, 2, 4 and 5,
    # each round expanding only the pairs new to it: as many expansions as
    # the table at stack cap 5 alone makes, one per pair. An expansion is a
    # call of the successor function `tabulate` hands to `bfs` on a pair (the
    # root of a round is None).
    calls = []
    real = engine.bfs

    def bfs(start, successors, *args):
        def counted(node):
            if node is not None:
                calls.append(node)
            return successors(node)

        return real(start, counted, *args)

    monkeypatch.setattr(engine, "bfs", bfs)
    counts = []
    for stack in (None, 5):
        calls.clear()
        v = check_uncontrolled(g_fix("twin.ig"), 7, Budget(max_steps=5, max_stack=stack))
        counts.append((v.info["forms"], len(calls)))
    assert counts == [(41, 41), (41, 41)]
    # the hard cap counts the pairs of every round together
    for cap, stop in ((40, HARD_CAP), (41, MAX_STEPS)):
        v = check_uncontrolled(g_fix("twin.ig"), 7, Budget(max_steps=5, hard_cap=cap))
        assert v.info["stop"] == stop


MEMBERSHIPS = [
    ("twin.ig", "aabbcc$aabbcc", False, Budget(max_steps=400, max_stack=3), "proven", 18561, 35),
    ("twin.ig", "abc$abc", False, Budget(max_steps=400, max_stack=3), "proven", 3337, 27),
    ("twin.ig", "abc$ab", True, Budget(max_steps=400, max_stack=3), "refuted", 2224, 25),
    ("anbn.ig", "aabb", True, Budget(max_steps=400), "proven", 6, 6),
    ("anbn.ig", "aab", True, Budget(max_steps=400), "refuted", 4, 4),
    ("ramp.ig", "abaabaaa", False, Budget(max_steps=400, max_stack=5), "proven", 2411, 24),
    ("anbncn.ig", "aabbcc", False, Budget(max_steps=400, max_stack=4), "proven", 154, 27),
]


@pytest.mark.parametrize(
    "name,w,exact,budget,kind,forms,forms_default", MEMBERSHIPS,
    ids=[f"{r[0]}-{r[1]}-{r[2]}-budget{i}-{r[4]}-{r[5]}" for i, r in enumerate(MEMBERSHIPS)])
def test_membership_pinned(name, w, exact, budget, kind, forms, forms_default):
    g = g_fix(name)
    for search, count in ((oracle_membership, forms), (membership, forms_default)):
        v = search(g, tuple(w), budget, caps_exact=exact)
        assert v.kind == kind
        assert v.info["forms"] == count
        if v.is_proven:
            assert replay(g, v.witness).yield_word() == tuple(w)


TWIN_STEPS = ((0, 0), (1, 0), (2, 0), (3, 0), (10, 1), (4, 1), (11, 2), (5, 2), (12, 3),
              (6, 3), (13, 3), (7, 4), (14, 5), (8, 5), (15, 6), (9, 6), (16, 7))


def test_witnesses_pinned():
    v = membership(g_fix("anbn.ig"), tuple("aabb"), Budget(max_steps=400))
    assert v.witness.steps == ((0, 0), (0, 1), (1, 2))
    v = membership(g_fix("twin.ig"), tuple("abc$abc"), Budget(max_steps=400, max_stack=3))
    assert v.witness.steps == TWIN_STEPS
    v = min_index(g_fix("ramp.ig"), tuple("abaa"), Budget(max_steps=60, max_stack=4))
    k, wit = v.info["k"], v.witness
    assert k == 3
    assert wit.steps == ((0, 0), (1, 0), (8, 0), (10, 1), (2, 2), (4, 2), (5, 2), (6, 3))
    v = special_count_min(g_fix("twin.ig"), tuple("abc$abc"), Budget(max_steps=60, max_stack=3))
    n, wit = v.info["k"], v.witness
    assert n == 1 and wit.steps == TWIN_STEPS
    # the witness follows the first back-pointers of the width table: a round
    # fires its rules with children before its leaves, so on the first round
    # every item starts at a leaf
    g = parse_grammar("grammar nest\nvariables: S, C\nterminals: a\nindices:\nstart: S\n"
                      "prod: C -> a S\nprod: S -> S C\nprod: S -> _\n")
    v = check_uncontrolled(g, 2, Budget(max_steps=0, max_stack=1))
    assert v.witness.steps == ((1, 0), (1, 0), (2, 0), (0, 0), (2, 1), (0, 1), (2, 2))


def test_minimums_pinned():
    assert min_index(g_fix("twin.ig"), tuple("abc$abc"),
                     Budget(max_steps=120, max_stack=3)).info["k"] == 7
    assert min_index(g_fix("anbncn.ig"), tuple("aabbcc"),
                     Budget(max_steps=120, max_stack=4)).info["k"] == 3
    assert special_count_min(g_fix("astar.ig"), tuple("aaa"), Budget(max_steps=20)).info["k"] == 0
    assert special_count_min(g_fix("anbncn.ig"), tuple("aabbcc"),
                             Budget(max_steps=120, max_stack=4)).info["k"] == 1


UNCONTROLLED = [
    ("ramp.ig", 3, Budget(max_steps=60, max_stack=5), "refuted"),
    ("ramp.ig", 2, Budget(max_steps=60, max_stack=4), "refuted"),
    ("twin.ig", 6, Budget(max_steps=60, max_stack=3), "refuted"),
    ("twin.ig", 7, Budget(max_steps=60, max_stack=3), "proven"),
    ("anbncn.ig", 2, Budget(max_steps=60, max_stack=4), "refuted"),
    ("anbncn.ig", 3, Budget(max_steps=60, max_stack=4), "proven"),
    ("anbn.ig", 1, Budget(max_steps=60), "proven"),
    ("astar.ig", 1, Budget(max_steps=30), "proven"),
]


@pytest.mark.parametrize("name,k,budget,kind", UNCONTROLLED)
def test_check_uncontrolled_pinned(name, k, budget, kind):
    g = g_fix(name)
    v = check_uncontrolled(g, k, budget)
    assert v.kind == kind
    if v.kind == REFUTED:
        assert v.witness.index() > k
        assert replay(g, v.witness).is_terminal()


NCM_RUNS = [
    ("anbn.ncm", "aabb", "accepted", 7, (0, 1, 2, 3, 5)),
    ("anbn.ncm", "", "accepted", 2, (4,)),
    ("anbn.ncm", "aab", "rejected", 5, None),
    ("updown.ncm", "abab", "accepted", 8, (0, 2, 4, 6, 10)),
    ("anbncn.ncm", "aabbcc", "accepted", 9, None),
    ("anbncn.ncm", "aabb", "rejected", 6, None),
    ("none.ncm", "", "rejected", 1, None),
]


@pytest.mark.parametrize("name,w,outcome,configs,moves_", NCM_RUNS)
def test_ncm_run_pinned(name, w, outcome, configs, moves_):
    r = ncm_run(parse_ncm(fixture_text(name)), tuple(w))
    assert OUTCOME[r.kind] == outcome
    assert r.info["configs"] == configs
    if moves_ is not None:
        assert tuple(t[0] for t in r.witness) == moves_


def test_vector_automaton_emptiness_pinned():
    def automaton(name):
        return sl.slset_automaton(sl.parse_slset(fixture_text(name))[2])

    assert va.is_empty(automaton("twin.sls")) == (0, 0, 0, 1, 0, 0, 0)
    assert va.is_empty(va.complement(automaton("diag.sls"))) == (1, 0)
    assert va.is_empty(va.complement(automaton("quadrant.sls"))) is None
