"""The budgeted-search driver, the soundness of minimums under the hard cap,
and the words, verdicts, counts and witnesses every search gives on the
fixtures (pinned values)."""

import math
from dataclasses import replace

import pytest

from igkit import fixture_text
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
    special_count_min,
)
from igkit.etol import etol_min_index, parse_etol
from igkit.grammar import parse_grammar, replay
from igkit.search import (
    EXPAND,
    FOUND,
    GOAL,
    HARD_CAP,
    LEAF,
    MAX_STEPS,
    SWEPT,
    bfs,
    moves,
    path,
)

from util import oracle_enumerate, oracle_membership


def g_fix(name):
    return parse_grammar(fixture_text(name))


# -- the driver -------------------------------------------------------------------------

# n -> n+1 and n -> 2n, below 20
def doubling(n):
    return [(op, m) for op, m in (("inc", n + 1), ("dbl", 2 * n)) if m < 20]


def test_bfs_sweeps_the_whole_space():
    s = bfs(1, doubling, 100, 100)
    assert s.stop == SWEPT and s.swept and s.goal is None
    assert set(s.parents) == set(range(1, 20))


def test_bfs_finds_a_goal_and_rebuilds_the_shortest_path():
    s = bfs(1, doubling, 100, 100, lambda n: GOAL if n == 12 else EXPAND)
    assert s.stop == FOUND and s.goal == 12
    assert path(s.parents, 12) == [1, 2, 3, 6, 12]
    assert moves(doubling, s.parents, 12) == [("inc", 2), ("inc", 3), ("dbl", 6), ("dbl", 12)]


def test_bfs_visits_the_start():
    s = bfs(1, doubling, 100, 100, lambda n: GOAL)
    assert s.stop == FOUND and s.goal == 1 and moves(doubling, s.parents, 1) == []


def test_bfs_leaves_are_stored_but_not_expanded():
    s = bfs(1, doubling, 100, 100, lambda n: LEAF if n == 2 else EXPAND)
    assert s.swept
    assert set(s.parents) == {1, 2}  # both moves from 1 lead to 2


def test_bfs_step_cap():
    s = bfs(1, doubling, 2, 100)
    assert s.stop == MAX_STEPS and set(s.parents) == {1, 2, 3, 4}
    assert bfs(1, doubling, 0, 100).stop == MAX_STEPS


def test_bfs_hard_cap_counts_stored_nodes():
    for cap in range(1, 19):
        s = bfs(1, doubling, math.inf, cap)
        assert s.stop == HARD_CAP and len(s.parents) == cap
    assert bfs(1, doubling, math.inf, 19).swept


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
    assert min_index(g, AA, capped).is_unknown


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
    assert etol_min_index(s, AA, replace(CHAIN_BUDGET, hard_cap=8)).is_unknown


def test_special_count_min_is_unknown_when_the_hard_cap_cuts_the_search():
    g = parse_grammar(CHAIN)
    v = special_count_min(g, AA, CHAIN_BUDGET)
    assert v.info["k"] == 0 == v.witness.special_count(g)
    # the derivation through S -> A A (one special) is found before the cap bites
    assert special_count_min(g, AA, replace(CHAIN_BUDGET, hard_cap=10)).is_unknown


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
     ["abaa", "abaabaaa", "abaabaaabaaaa"], True, 3532, 717),
    ("anbncn.ig", 12, Budget(max_steps=400, max_stack=5),
     ["", "abc", "aabbcc", "aaabbbccc", "aaaabbbbcccc"], True, 446, 56),
    ("mix2.ig", 6, Budget(max_steps=60), ["", "abc", "aabcbc", "ababcc"], True, 22, 12),
]


@pytest.mark.parametrize(
    "name,n,budget,words,exhausted,forms,forms_default", ENUMERATIONS,
    ids=[f"{r[0]}-{r[1]}-budget{i}-words{i}-{r[4]}-{r[5]}" for i, r in enumerate(ENUMERATIONS)])
def test_enumeration_pinned(name, n, budget, words, exhausted, forms, forms_default):
    for search, count in ((oracle_enumerate, forms), (enumerate_language, forms_default)):
        res = search(g_fix(name), n, budget)
        assert list(res.rendered()) == words
        assert res.exhausted == exhausted
        assert res.forms_seen == count


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
    if v.is_refuted:
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
