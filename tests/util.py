"""Shared helpers: fixture loading, enumeration as sets of rendered words,
brute-force oracles for the closure constructions, the all-orders search
that the leftmost and subtree orders of the engine are checked against, the
form search that the width table of check_uncontrolled is checked against,
and the grid of a tuple automaton."""

from dataclasses import replace
from itertools import product

from igkit import fixture_text
from igkit.engine import (
    Budget,
    CompiledGrammar,
    EnumerationResult,
    _can_yield,
    _derivation,
    _is_terminal_enc,
    enumerate_language,
)
from igkit.grammar import SPECIAL, parse_grammar
from igkit.search import (
    EXPAND,
    FOUND,
    GOAL,
    HARD_CAP,
    LEAF,
    PROVEN,
    REFUTED,
    UNKNOWN,
    Verdict,
    bfs,
    decide,
)
from igkit.vector_automata import determinize, saturate


# counts to 6 on silent moves, then back to 0: accepts exactly the empty word
SILENT_SIX = (
    "ncm six\nstates: s0, s1, s2, s3, s4, s5, s6, d, f\nalphabet: a\ncounters: 1\n"
    "reversals: 1\ninitial: s0\nhalt: f\ntrans: s0, _, tests(z) -> s1, deltas(+)\n"
    + "".join(f"trans: s{i}, _, tests(p) -> s{i + 1}, deltas(+)\n" for i in range(1, 6))
    + "trans: s6, _, tests(p) -> d, deltas(-)\ntrans: d, _, tests(p) -> d, deltas(-)\n"
    "trans: d, _, tests(z) -> f, deltas(0)\n"
)


# A width cap that cannot bind: with it, CompiledGrammar.expand tries every order.
ALL_ORDERS = 10**9


def _all_orders(g, budget):
    """The budget with a width cap, and a CompiledGrammar of g."""
    b = budget if budget.max_width is not None else replace(budget, max_width=ALL_ORDERS)
    return b, CompiledGrammar(g)


def oracle_enumerate(g, max_len, budget):
    """enumerate_language over every rewrite order: search.bfs over
    CompiledGrammar.expand, the oracle of the leftmost and subtree orders."""
    b, c = _all_orders(g, budget)
    max_terms = max_len if b.max_yield is None else min(max_len, b.max_yield)
    words = []

    def visit(form):
        if _is_terminal_enc(form):
            words.append(form)
            return LEAF
        return EXPAND

    s = bfs(c.start(), lambda f: c.expand(f, b, max_terms=max_terms), b.max_steps, b.hard_cap,
            visit)
    decoded = sorted((tuple(c.term_names[-x - 1] for x in w) for w in words if len(w) <= max_len),
                     key=lambda w: (len(w), w))
    return EnumerationResult(tuple(decoded), s.swept, budget.active_caps(), len(s.parents), s.stop)


def oracle_membership(g, w, budget, caps_exact=False):
    """membership over every rewrite order (see oracle_enumerate)."""
    b, c = _all_orders(g, budget)
    target = c.encode_word(w)

    def successors(form):
        return c.expand(form, b, max_terms=len(target))

    def visit(form):
        if _is_terminal_enc(form):
            return GOAL if form == target else LEAF
        return EXPAND if _can_yield(form, target) else LEAF

    s = bfs(c.start(), successors, b.max_steps, b.hard_cap, visit)
    return decide(s, caps_exact, lambda goal: _derivation(c, successors, s.parents, goal, 0),
                  forms=len(s.parents))


def oracle_min_index(g, w, budget, caps_exact=False):
    """The smallest k whose all-orders search proves w, as min_index answers
    it: unknown, or refuted when the full search refutes w."""
    full = oracle_membership(g, w, budget, caps_exact)
    if not full.is_proven:
        return Verdict(full.kind, None, {"stop": full.info["stop"]})
    for k in range(1, full.witness.index()):
        v = oracle_membership(g, w, replace(budget, max_width=k))
        if v.is_proven:
            return Verdict(PROVEN, v.witness, {"k": k, "stop": FOUND})
        if v.info["stop"] == HARD_CAP:
            return Verdict(UNKNOWN, None, {"stop": HARD_CAP})
    return Verdict(PROVEN, full.witness, {"k": full.witness.index(), "stop": FOUND})


def oracle_special_count_min(g, w, budget, caps_exact=False):
    """special_count_min over every rewrite order (see oracle_enumerate)."""
    b, c = _all_orders(g, budget)
    target = c.encode_word(w)
    specials = {pid for pid, p in enumerate(g.productions) if g.classify(p) == SPECIAL}
    best = None

    def successors(state):
        form, nspec = state
        return [(pos, pid, (f2, nspec + (pid in specials)))
                for pos, pid, f2 in c.expand(form, b, max_terms=len(target))
                if best is None or nspec + (pid in specials) < best]

    def visit(state):
        nonlocal best
        form, nspec = state
        if _is_terminal_enc(form):
            if form == target:
                best = nspec
            return LEAF
        return EXPAND if _can_yield(form, target) else LEAF

    s = bfs((c.start(), 0), successors, b.max_steps, b.hard_cap, visit)
    if best is None or s.stop == HARD_CAP:
        return decide(s, caps_exact)
    return Verdict(PROVEN, None, {"k": best, "stop": s.stop})


def oracle_check_uncontrolled(g, k, budget):
    """check_uncontrolled as a search over terminal-erased forms, in every
    order. Phase 1 looks for a form wider than k under a width cap of k plus
    the largest widening of one step: the first form of a derivation wider
    than k is within it. Phase 2 looks for a way to finish such a form; a
    finishing search that sweeps without () marks every form it stored as
    hopeless. Both phases run within max_steps levels. The verdict only: no
    witness."""
    c = CompiledGrammar(g)
    max_jump = max((row[5] - 1 for row in c.prods if row[0] != 1), default=0)
    phase1_budget = replace(budget, max_width=k + max(0, max_jump))
    phase2_budget = replace(budget, max_width=ALL_ORDERS)

    def erased(b):
        return lambda form: [(pos, pid, tuple(x for x in f2 if x >= 0))
                             for pos, pid, f2 in c.expand(form, b)]

    phase2 = erased(phase2_budget)
    cut = None  # why a phase-2 search stopped short, if one did
    dead = set()

    def visit(form):
        nonlocal cut
        if len(form) > k and form not in dead:
            s2 = bfs(form, phase2, budget.max_steps, budget.hard_cap,
                     lambda f: EXPAND if f else GOAL)
            if s2.stop == FOUND:
                return GOAL
            if s2.swept:
                dead.update(s2.parents)
            else:
                cut = s2.stop
        return EXPAND if form else LEAF

    s = bfs(c.start(), erased(phase1_budget), budget.max_steps, budget.hard_cap, visit)
    info = {"exhausted": s.swept and cut is None,
            "stop": cut if s.swept and cut else s.stop}
    if s.stop == FOUND:
        return Verdict(REFUTED, None, info)
    return Verdict(PROVEN if info["exhausted"] else UNKNOWN, None, info)


def grid_members(a, radius):
    """All vectors the tuple automaton accepts with every component <= radius
    (walked on the determinized, saturated automaton: one dict lookup per
    symbol)."""
    d = saturate(determinize(a))
    length = radius.bit_length()
    out = []
    tracks = a.tracks

    def walk(state, t, partial):
        if t == length:
            if state in d.accepting:
                out.append(tuple(partial))
            return
        for sym in range(1 << tracks):
            vals = [p | (((sym >> i) & 1) << t) for i, p in enumerate(partial)]
            if any(x > radius for x in vals):
                continue
            nxt = d.targets(state, sym)
            if nxt:
                walk(nxt[0], t + 1, vals)

    walk(d.initial, 0, [0] * tracks)
    return frozenset(out)


def load(name):
    return parse_grammar(fixture_text(name))


def enum_set(g, max_len, steps=400, stack=None, width=None):
    res = enumerate_language(
        g, max_len, Budget(max_steps=steps, max_stack=stack, max_width=width)
    )
    assert res.exhausted, f"enumeration of {g.name} not exhausted; raise the budget"
    return set(res.rendered())


def words_upto(alphabet, n):
    for ln in range(n + 1):
        for tup in product(alphabet, repeat=ln):
            yield "".join(tup)


def interleavings(word, pads, max_len):
    """Every string whose pad-erasure is `word`, padding drawn from `pads`,
    length at most max_len (pads may be empty strings of padding anywhere)."""
    out = set()

    def rec(prefix, rest):
        if len(prefix) > max_len:
            return
        if not rest:
            out.add(prefix)
            for c in pads:
                rec(prefix + c, rest)
            return
        rec(prefix + rest[0], rest[1:])
        for c in pads:
            rec(prefix + c, rest)

    rec("", word)
    return out
