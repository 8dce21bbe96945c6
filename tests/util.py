"""Shared helpers: fixture loading, enumeration as sets of rendered words,
random grammars for Hypothesis, brute-force oracles for the closure
constructions, the all-orders search that the leftmost and subtree orders of
the engine are checked against, the form search that the width table of
check_uncontrolled is checked against, the fixpoints that the pruning of
closure.py is checked against, and the grid of a tuple automaton."""

from dataclasses import replace
from itertools import product

from hypothesis import strategies as st

from igkit import fixture_text, kernel
from igkit.engine import (
    Budget,
    CompiledGrammar,
    EnumerationResult,
    _can_yield,
    _derivation,
    _is_terminal_enc,
    enumerate_language,
)
from igkit.grammar import SPECIAL, Production, make_grammar, parse_grammar
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


# A width cap that cannot bind: with it and no depths, kernel.expand tries every order.
ALL_ORDERS = 10**9


TERMS = ("a", "b")  # the terminals of the random grammars


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


def every_order(c, budget, max_terms=-1):
    """The successors of a form in every rewrite order under the budget's
    caps: kernel.expand with a width cap (ALL_ORDERS when the budget has
    none) and no depths."""
    width = ALL_ORDERS if budget.max_width is None else budget.max_width
    stack = -1 if budget.max_stack is None else budget.max_stack
    return lambda form: kernel.expand(c, form, width, stack, max_terms, 0)


def oracle_enumerate(g, max_len, budget):
    """enumerate_language over every rewrite order: search.bfs over
    every_order, the oracle of the leftmost and subtree orders."""
    c = CompiledGrammar(g)
    words = []

    def visit(form):
        if _is_terminal_enc(form):
            words.append(form)
            return LEAF
        return EXPAND

    s = bfs(c.start(), every_order(c, budget, max_len), budget.max_steps, budget.hard_cap, visit)
    decoded = sorted((tuple(c.term_names[-x - 1] for x in w) for w in words),
                     key=lambda w: (len(w), w))
    return EnumerationResult(tuple(decoded), s.swept, budget.active_caps(), len(s.parents), s.stop)


def oracle_membership(g, w, budget, caps_exact=False):
    """membership over every rewrite order (see oracle_enumerate)."""
    c = CompiledGrammar(g)
    target = c.encode_word(w)
    successors = every_order(c, budget, len(target))

    def visit(form):
        if _is_terminal_enc(form):
            return GOAL if form == target else LEAF
        return EXPAND if _can_yield(form, target) else LEAF

    s = bfs(c.start(), successors, budget.max_steps, budget.hard_cap, visit)
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
    c = CompiledGrammar(g)
    target = c.encode_word(w)
    expand = every_order(c, budget, len(target))
    specials = {pid for pid, p in enumerate(g.productions) if g.classify(p) == SPECIAL}
    best = None

    def successors(state):
        form, nspec = state
        return [(pos, pid, (f2, nspec + (pid in specials)))
                for pos, pid, f2 in expand(form)
                if best is None or nspec + (pid in specials) < best]

    def visit(state):
        nonlocal best
        form, nspec = state
        if _is_terminal_enc(form):
            if form == target:
                best = nspec
            return LEAF
        return EXPAND if _can_yield(form, target) else LEAF

    s = bfs((c.start(), 0), successors, budget.max_steps, budget.hard_cap, visit)
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
        expand = every_order(c, b)
        return lambda form: [(pos, pid, tuple(x for x in f2 if x >= 0))
                             for pos, pid, f2 in expand(form)]

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


def oracle_prune_unreachable(g):
    """closure.prune_unreachable as a fixpoint over all productions."""
    reach = {g.start}
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if p.lhs_var not in reach:
                continue
            for s in p.rhs:
                if s in g.variable_set and s not in reach:
                    reach.add(s)
                    changed = True
    prods = tuple(p for p in g.productions if p.lhs_var in reach)
    used_idx = set()
    for p in prods:
        if p.lhs_index is not None:
            used_idx.add(p.lhs_index)
        if p.push_index is not None:
            used_idx.add(p.push_index)
    return replace(
        g,
        variables=tuple(v for v in g.variables if v in reach),
        indices=tuple(i for i in g.indices if i in used_idx),
        productions=prods,
    )


def oracle_prune_nonproductive(g):
    """closure.prune_nonproductive as a fixpoint over all productions."""
    productive = set()
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if p.lhs_var in productive:
                continue
            if all(s in productive or s not in g.variable_set for s in p.rhs):
                productive.add(p.lhs_var)
                changed = True
    prods = tuple(
        p for p in g.productions
        if p.lhs_var in productive
        and all(s not in g.variable_set or s in productive for s in p.rhs)
    )
    keep = productive | {g.start}
    return replace(g, variables=tuple(v for v in g.variables if v in keep), productions=prods)


def grid_members(a, radius):
    """All vectors the tuple automaton accepts with every component <= radius
    (walked on the determinized, saturated automaton: one dict lookup per
    symbol)."""
    d = saturate(determinize(a))
    length = radius.bit_length()
    out = []

    def walk(state, t, partial):
        if t == length:
            if state in d.accepting:
                out.append(tuple(partial))
            return
        bit = 1 << t
        syms = [0]  # the symbols that set bit t only on tracks it keeps within the radius
        for i, p in enumerate(partial):
            if p | bit <= radius:
                syms += [s | 1 << i for s in syms]
        for sym in syms:
            nxt = d.targets(state, sym)
            if nxt:
                walk(nxt[0], t + 1, [p | bit if sym >> i & 1 else p
                                     for i, p in enumerate(partial)])

    walk(d.initial, 0, [0] * a.tracks)
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
