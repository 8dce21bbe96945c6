"""Shared helpers: fixture loading, enumeration as sets of rendered words,
the grammar helpers that no command needs (checked construction,
validation, one-step successors, special productions), random grammars for
Hypothesis, brute-force oracles for the closure
constructions, the all-orders search that the leftmost and subtree orders of
the engine are checked against, the unranked form search and the search at
each width k that membership's and min_index's ranked search is checked
against, the least number of special productions in a derivation, found in
subtree order and in every order, the least ET0L width, found one cap at a
time, the ET0L step that etol's per-table rule maps are checked against,
the two-pass yield check that the one-pass one is checked against,
the search that the word table of
enumerate_language is checked against, the form search that the width table of
check_uncontrolled is checked against, the full product that
closure.intersect_dfa is checked against with the prunings it cleans with
(and the fixpoints they are checked against), the enumeration route that the
Parikh table of counters.parikh_of_intersection is checked against, the
acceptance test that counters.expand_to_nfa is checked with, the grid of a
tuple automaton, the chain of equation-automaton products and the full
complement product that the linear-set automata and the inclusion search of
igkit.semilinear are checked against, Parikh vectors and the `.sls` writer
the round-trip tests read back, the character loop that
grammar.strip_comment is checked against, the sorted formula that
engine.tree_width is checked against, the one-state automata that accept
everything and nothing, the run of a total deterministic automaton, the
nodes on a stored search path, and short forms for the words of a result
as strings, the image of a word under a morphism and a semilinear set of
given components, and argparse's parser of every command of cli.TABLE, which
the rows' own argv reader is checked against."""

import argparse
import math
from itertools import chain, product

from hypothesis import strategies as st

from igkit import automata, cli, fixture_text, kernel, replace
from igkit import vector_automata as va
from igkit.closure import _split_rhs, inverse_projection, normalize_rhs
from igkit.counters import counter_letters, expand_to_nfa, to_one_reversal
from igkit.engine import (
    Budget,
    CompiledGrammar,
    _can_yield,
    _derivation,
    _is_terminal_enc,
    _yield_blocks,
    enumerate_language,
)
from igkit.etol import _bounded_successors
from igkit.grammar import (
    CONSUME,
    PUSH,
    GrammarError,
    IndexedGrammar,
    Production,
    Var,
    apply_production,
    fresh_name,
    located_problems,
    parse_grammar,
)
from igkit.semilinear import SemilinearSet
from igkit.search import (
    EXPAND,
    FOUND,
    GOAL,
    HARD_CAP,
    LEAF,
    PROVEN,
    REFUTED,
    SWEPT,
    UNKNOWN,
    Verdict,
    bfs,
    decide,
    moves,
    reach,
)


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


def make_grammar(name, variables, terminals, indices, productions, start) -> IndexedGrammar:
    """The grammar of these parts; GrammarError when it is not valid."""
    g = IndexedGrammar(tuple(variables), tuple(terminals), tuple(indices), tuple(productions),
                       start, name)
    problems = validate(g)
    if problems:
        raise GrammarError("invalid grammar: " + "; ".join(problems))
    return g


def validate(g):
    """Every structural violation of g (an empty list when it is valid)."""
    return [message for _, message in located_problems(g)]


def var_positions(form):
    return tuple(i for i, it in enumerate(form.items) if isinstance(it, Var))


def successors(g, form):
    """All (position, production, form) one-step derivatives of `form`,
    ordered by position then by production list order: the object-level
    oracle of kernel.expand."""
    out = []
    for pos in var_positions(form):
        occ = form.items[pos]
        for p in g.productions:
            if p.lhs_var != occ.symbol:
                continue
            if p.kind == CONSUME and (not occ.stack or occ.stack[0] != p.lhs_index):
                continue
            out.append((pos, p, apply_production(g, form, pos, p)))
    return out


def is_special(g, p):
    """A production is special when its rhs holds >= 2 variable occurrences."""
    return p.kind != PUSH and sum(1 for s in p.rhs if s in g.variable_set) >= 2


def special_productions(g):
    return tuple(p for p in g.productions if is_special(g, p))


def special_count(g, d):
    """The number of special-production applications in derivation d."""
    return sum(1 for pid, _ in d.steps if is_special(g, g.productions[pid]))


TERMS = ("a", "b")  # the terminals of the random grammars


@st.composite
def grammars(draw):
    """At most 4 variables, 2 indices and 7 plain, push and consume
    productions. Half of the grammars start from a skeleton: each variable
    rewrites to a letter, and the start to three other variables, the widest
    rule the tables join under a width cap of 3, which a random rule rarely
    is in a grammar whose search sweeps."""
    vs = ("S", "A", "B", "C")[: draw(st.integers(1, 4))]
    idx = ("e", "f")[: draw(st.integers(0, 2))]
    prods = []
    if draw(st.booleans()):
        prods += [Production(v, (draw(st.sampled_from(TERMS)),)) for v in vs]
        if len(vs) > 1:
            prods.append(Production("S", tuple(draw(st.lists(st.sampled_from(vs[1:]),
                                                             min_size=3, max_size=3)))))
    for _ in range(draw(st.integers(1, 7)) - len(prods)):
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


@st.composite
def total_dfas(draw, alphabet):
    """A total DFA with 1 to 5 states over `alphabet`."""
    states = tuple(f"s{i}" for i in range(draw(st.integers(1, 5))))
    moves = tuple((q, a, draw(st.sampled_from(states))) for q in states for a in alphabet)
    accepting = frozenset(draw(st.sets(st.sampled_from(states))))
    return automata.Nfa(states, tuple(alphabet), draw(st.sampled_from(states)), accepting,
                        moves, name="rnd")


def every_order(c, budget, max_terms=-1):
    """The successors of a form in every rewrite order under the budget's
    caps: kernel.expand with a width cap (ALL_ORDERS when the budget has
    none) and no depths."""
    width = ALL_ORDERS if budget.max_width is None else budget.max_width
    stack = -1 if budget.max_stack is None else budget.max_stack
    return lambda form: kernel.expand(c, form, width, stack, max_terms, 0)


def _search_enumerate(g, budget, successors):
    c = CompiledGrammar(g)
    words = []

    def visit(form):
        if _is_terminal_enc(form):
            words.append(form)
            return LEAF
        return EXPAND

    s = bfs(c.start(), successors(c), budget.max_steps, budget.hard_cap, visit)
    decoded = sorted((tuple(c.letters[-x] for x in w) for w in words),
                     key=lambda w: (len(w), w))
    return Verdict(PROVEN, tuple(decoded), {"stop": s.stop, "forms": len(s.parents)})


def oracle_enumerate(g, max_len, budget):
    """enumerate_language over every rewrite order: search.bfs over
    every_order, the oracle of the leftmost and subtree orders."""
    return _search_enumerate(g, budget, lambda c: every_order(c, budget, max_len))


def search_enumerate(g, max_len, budget):
    """enumerate_language by search alone: search.bfs over
    CompiledGrammar.expand, leftmost without a width cap and in subtree order
    with one. Under a width cap with a bounded stack the engine reads its
    words from a table instead; this is that table's oracle."""
    return _search_enumerate(g, budget, lambda c: lambda f: c.expand(f, budget, max_len))


def oracle_can_yield(form, target):
    """engine._can_yield as it was first written: the form split into its
    terminal blocks, then the blocks placed in the target."""
    blocks = _yield_blocks(form)
    if len(blocks) == 1:
        return blocks[0] == target
    total = sum(len(b) for b in blocks)
    if total > len(target):
        return False
    lead, trail = blocks[0], blocks[-1]
    if target[: len(lead)] != lead:
        return False
    limit = len(target) - len(trail)
    if limit < len(lead) or target[limit:] != trail:
        return False
    pos = len(lead)
    for mid in blocks[1:-1]:
        if not mid:
            continue
        n = len(mid)
        while pos + n <= limit and target[pos: pos + n] != mid:
            pos += 1
        if pos + n > limit:
            return False
        pos += n
    return True


def _search_membership(g, w, budget, caps_exact, successors):
    c = CompiledGrammar(g)
    target = c.encode_word(w)
    expand = successors(c)

    def visit(form):
        if _is_terminal_enc(form):
            return GOAL if form == target else LEAF
        return EXPAND if oracle_can_yield(form, target) else LEAF

    s = bfs(c.start(), expand, budget.max_steps, budget.hard_cap, visit)
    return decide(s, caps_exact, lambda goal: _derivation(
        g, [(pid, pos) for pos, pid, _ in moves(s.parents, goal)]), forms=len(s.parents))


def oracle_membership(g, w, budget, caps_exact=False):
    """membership over every rewrite order (see oracle_enumerate)."""
    return _search_membership(g, w, budget, caps_exact,
                              lambda c: every_order(c, budget, len(w)))


def search_membership(g, w, budget, caps_exact=False):
    """membership as one breadth-first search over forms in the engine's
    order (CompiledGrammar.expand), not ranked by index: the oracle of the
    verdicts of the ranked search that membership runs under a width cap."""
    return _search_membership(g, w, budget, caps_exact,
                              lambda c: lambda f: c.expand(f, budget, len(w)))


def _per_k_min_index(search, g, w, budget, caps_exact):
    full = search(g, w, budget, caps_exact)
    if not full.is_proven:
        return Verdict(full.kind, None, {"stop": full.info["stop"]})
    for k in range(1, full.witness.index()):
        v = search(g, w, replace(budget, max_width=k))
        if v.is_proven:
            return Verdict(PROVEN, v.witness, {"k": k, "stop": FOUND})
        if v.info["stop"] == HARD_CAP:
            return Verdict(UNKNOWN, None, {"stop": HARD_CAP})
    return Verdict(PROVEN, full.witness, {"k": full.witness.index(), "stop": FOUND})


def oracle_min_index(g, w, budget, caps_exact=False):
    """The smallest k whose all-orders search proves w, as min_index answers
    it: unknown, or refuted when the full search refutes w."""
    return _per_k_min_index(oracle_membership, g, w, budget, caps_exact)


def per_k_min_index(g, w, budget, caps_exact=False):
    """min_index as one search_membership at each width k below the first
    witness's index: the oracle of min_index's single ranked search."""
    return _per_k_min_index(search_membership, g, w, budget, caps_exact)


def special_count_min(g, w, budget, caps_exact=False):
    """Proven with the minimum number (`info["k"]`) of special-production
    applications over all derivations of w found within the budget, and a
    derivation that reaches it; refuted when the search swept without one
    and the caller asserts (caps_exact) that the caps cover every derivation
    of w; unknown otherwise, and whenever the hard cap cut the search short.
    The engine's subtree-order search (CompiledGrammar.expand), with the
    count of special productions carried in each state."""
    c = CompiledGrammar(g)
    target = c.encode_word(w)
    specials = frozenset(pid for pid, p in enumerate(g.productions) if is_special(g, p))
    best = None
    best_state = None

    def step(state):
        form, nspec = state
        return [(pos, pid, (f2, nspec + (pid in specials)))
                for pos, pid, f2 in c.expand(form, budget, len(target))]

    def successors(state):
        return (t for t in step(state) if best is None or t[2][1] < best)

    def visit(state):
        nonlocal best, best_state
        form, nspec = state
        if _is_terminal_enc(form):
            if form == target:
                best, best_state = nspec, state
            return LEAF
        return EXPAND if _can_yield(form, target) else LEAF

    s = bfs((c.start(), 0), successors, budget.max_steps, budget.hard_cap, visit)
    if best is None or s.stop == HARD_CAP:
        return decide(s, caps_exact)
    taken = moves(s.parents, best_state)
    return Verdict(PROVEN, _derivation(g, [(pid, pos) for pos, pid, _ in taken]),
                   {"k": best, "stop": s.stop})


def oracle_special_count_min(g, w, budget, caps_exact=False):
    """special_count_min over every rewrite order (see oracle_enumerate)."""
    c = CompiledGrammar(g)
    target = c.encode_word(w)
    expand = every_order(c, budget, len(target))
    specials = {pid for pid, p in enumerate(g.productions) if is_special(g, p)}
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
        return EXPAND if oracle_can_yield(form, target) else LEAF

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
            if s2.stop == SWEPT:
                dead.update(s2.parents)
            else:
                cut = s2.stop
        return EXPAND if form else LEAF

    s = bfs(c.start(), erased(phase1_budget), budget.max_steps, budget.hard_cap, visit)
    info = {"stop": cut if s.stop == SWEPT and cut else s.stop}
    if s.stop == FOUND:
        return Verdict(REFUTED, None, info)
    return Verdict(PROVEN if info["stop"] == SWEPT else UNKNOWN, None, info)


def path(parents, node):
    """The stored nodes from the start to `node`."""
    return [next(iter(parents)), *(step[-1] for step in moves(parents, node))]


def etol_min_index(sys, w, budget):
    """Proven with the smallest cap (`info["k"]`) on simultaneous active
    occurrences under which some parallel derivation of w exists within the
    budget, and the words of that derivation. Unknown when none is found,
    since the caps need not cover every derivation, or when the hard cap cut
    short the search under a smaller cap."""
    w = tuple(w)
    top = budget.max_width if budget.max_width is not None else max(len(w), 1) + 2
    info: dict = {}
    for cap in range(1, top + 1):
        s = bfs((sys.axiom,), _bounded_successors(sys, len(w), cap), budget.max_steps,
                budget.hard_cap, lambda word: GOAL if word == w else EXPAND)
        if s.stop == FOUND:
            return Verdict(PROVEN, tuple(path(s.parents, s.goal)), {"k": cap, "stop": FOUND})
        info = {"stop": s.stop}
        if s.stop == HARD_CAP:
            break
    return Verdict(UNKNOWN, None, info)


def oracle_etol_successors(sys, max_inactive, max_active):
    """etol._bounded_successors as each table's product of options, read from
    all of the table's rules for each occurrence, then filtered: the step that
    the per-table rule maps are checked against."""
    inactive = frozenset(sys.alphabet) - sys.active_symbols()

    def successor_words(word):
        for ti, t in enumerate(sys.tables):
            option_lists = []
            for sym in word:
                if sym in inactive:
                    option_lists.append(((sym,),))
                    continue
                opts = tuple(rhs for lhs, rhs in t.rules if lhs == sym)
                if not opts:
                    break
                option_lists.append(opts)
            else:
                for combo in product(*option_lists):
                    yield ti, tuple(chain.from_iterable(combo))

    def successors(word):
        for step in successor_words(word):
            n_inactive = sum(1 for s in step[1] if s in inactive)
            if n_inactive <= max_inactive and (
                max_active is None or len(step[1]) - n_inactive <= max_active
            ):
                yield step

    return successors


def prune_unreachable(g):
    """Drop variables unreachable from the start symbol, their productions,
    and index symbols no production mentions. Language-preserving."""
    below: dict = {}  # variable -> the variables on its right sides
    for p in g.productions:
        below.setdefault(p.lhs_var, []).extend(s for s in p.rhs if s in g.variable_set)
    reached = set(reach([g.start], lambda v: [(s,) for s in below.get(v, ())]))
    prods = tuple(p for p in g.productions if p.lhs_var in reached)
    used_idx = set()
    for p in prods:
        if p.lhs_index is not None:
            used_idx.add(p.lhs_index)
        if p.push_index is not None:
            used_idx.add(p.push_index)
    return replace(
        g,
        variables=tuple(v for v in g.variables if v in reached),
        indices=tuple(i for i in g.indices if i in used_idx),
        productions=prods,
    )


def prune_nonproductive(g):
    """Drop variables that can never rewrite to a terminal word even when
    index availability is ignored (a sound over-approximation: consume
    productions are treated as always applicable). Successful derivations are
    untouched, so the language, minimal widths and special counts are all
    preserved; dead search branches disappear."""
    waiting = []  # per production: its right-side variables not yet known productive
    uses: dict = {}  # variable -> the productions with it on the right side
    for i, p in enumerate(g.productions):
        rhs_vars = {s for s in p.rhs if s in g.variable_set}
        waiting.append(len(rhs_vars))
        for v in rhs_vars:
            uses.setdefault(v, []).append(i)

    def successors(v):
        # reach expands each variable once, so each count drops once per variable
        for i in uses.get(v, ()):
            waiting[i] -= 1
            if waiting[i] == 0:
                yield (g.productions[i].lhs_var,)

    productive = set(reach([p.lhs_var for p, n in zip(g.productions, waiting) if n == 0],
                           successors))
    prods = tuple(
        p for p in g.productions
        if p.lhs_var in productive
        and all(s not in g.variable_set or s in productive for s in p.rhs)
    )
    keep = productive | {g.start}
    return replace(g, variables=tuple(v for v in g.variables if v in keep), productions=prods)


def universal_dfa(alphabet, name="universal"):
    return automata.Nfa(("u",), tuple(alphabet), "u", frozenset({"u"}),
                        tuple(("u", a, "u") for a in alphabet), name=name)


def empty_dfa(alphabet, name="empty"):
    return automata.Nfa(("u",), tuple(alphabet), "u", frozenset(),
                        tuple(("u", a, "u") for a in alphabet), name=name)


def run_dfa(d, word, state=None):
    """The state that the total deterministic automaton d reaches on `word`
    from `state` (its initial state when None)."""
    cur = d.initial if state is None else state
    for a in word:
        (cur,) = d.moves(cur, a)
    return cur


def clean(g):
    """Non-productive then unreachable pruning."""
    return prune_unreachable(prune_nonproductive(g))


def oracle_intersect_dfa(g, d):
    """closure.intersect_dfa as the full product: every triple <p|A|q> and
    every production over all states, then `clean`."""
    imap = {f: f"{f}#i" for f in g.indices}
    states = d.states

    def tri(p, var, q):
        return f"<{p}|{var}|{q}>"

    variables = [tri(p, v, q) for v in g.variables for p in states for q in states]
    start = fresh_name("S", variables)
    prods = [Production(start, (tri(d.initial, g.start, acc),))
             for acc in states if acc in d.accepting]
    for prod in g.productions:
        lhs_index = None if prod.lhs_index is None else imap[prod.lhs_index]
        if prod.kind == PUSH:
            for p, q in product(states, states):
                prods.append(Production(tri(p, prod.lhs_var, q), (tri(p, prod.rhs[0], q),),
                                        push_index=imap[prod.push_index]))
            continue
        words, xs = _split_rhs(g, prod.rhs)
        if not xs:
            for p in states:
                prods.append(Production(tri(p, prod.lhs_var, run_dfa(d, words[0], p)), words[0],
                                        lhs_index=lhs_index))
        elif len(xs) == 1:
            u, v = words
            for p, s in product(states, states):
                prods.append(Production(tri(p, prod.lhs_var, run_dfa(d, v, s)),
                                        u + (tri(run_dfa(d, u, p), xs[0], s),) + v,
                                        lhs_index=lhs_index))
        else:
            u = words[0]
            for p, mid, q in product(states, states, states):
                prods.append(Production(tri(p, prod.lhs_var, q),
                                        u + (tri(run_dfa(d, u, p), xs[0], mid), tri(mid, xs[1], q)),
                                        lhs_index=lhs_index))
    return clean(IndexedGrammar(
        variables=(start,) + tuple(variables),
        terminals=g.terminals,
        indices=tuple(imap[f] for f in g.indices),
        productions=tuple(prods),
        start=start,
        name=f"cap({g.name},{d.name})",
    ))


def parikh_route(g, m):
    """The normalized grammar and the DFA that
    counters.parikh_of_intersection intersects, and the number of counters
    of the one-reversal machine."""
    m1 = to_one_reversal(m)
    ext = g.terminals + counter_letters(m1.num_counters)
    d = automata.determinize(expand_to_nfa(m1), alphabet=ext)
    return normalize_rhs(inverse_projection(g, ext)), d, m1.num_counters


def oracle_parikh(g, m, radius, enum_len=None, budget=None):
    """counters.parikh_of_intersection through enumeration: every word of
    the intersection grammar (the full product) up to enum_len within the
    budget, the balanced ones projected onto g's terminals."""
    gn, d, k = parikh_route(g, m)
    g2 = oracle_intersect_dfa(gn, d)
    length = enum_len if enum_len is not None else radius * (1 + 2 * k)
    res = search_enumerate(g2, length, budget or Budget(max_steps=600))
    vectors = set()
    for w in res.witness:
        xs = [ltr for ltr in w if ltr in g.terminal_set]
        if len(xs) <= radius and all(w.count(f"p#{i}") == w.count(f"q#{i}")
                                     for i in range(1, k + 1)):
            vectors.add(parikh(xs, g.terminals))
    return Verdict(PROVEN, tuple(sorted(vectors)), {"stop": res.info["stop"], "enum_len": length})


def accepts_via_expansion(nfa, input_alphabet, k, x, cap=None):
    """Whether the machine that counters.expand_to_nfa expanded to `nfa`
    accepts x, read off the expansion: search for an NFA word with balanced
    p#i/q#i counts that projects to x, over (state, input position, count
    differences): proven with the run trace, one (label, state, position,
    differences) per step. Each difference is capped at |x|+4 by default (a
    budget): refuted only when the capped space was swept without the cap
    ever biting."""
    x = tuple(x)
    cap = cap if cap is not None else len(x) + 4
    inputs = set(input_alphabet)
    pletters = {f"p#{i + 1}": i for i in range(k)}
    qletters = {f"q#{i + 1}": i for i in range(k)}
    capped = False

    def successors(cfg):
        nonlocal capped
        state, pos, bal = cfg
        for src, label, dst in nfa.transitions:
            if src != state:
                continue
            if label is None:
                yield label, (dst, pos, bal)
            elif label in inputs:
                if pos < len(x) and x[pos] == label:
                    yield label, (dst, pos + 1, bal)
            elif label in pletters:
                i = pletters[label]
                if bal[i] < cap:
                    yield label, (dst, pos, bal[:i] + (bal[i] + 1,) + bal[i + 1:])
                else:
                    capped = True
            else:
                i = qletters[label]
                if bal[i] > 0:
                    yield label, (dst, pos, bal[:i] + (bal[i] - 1,) + bal[i + 1:])

    def visit(cfg):
        state, pos, bal = cfg
        return GOAL if pos == len(x) and not any(bal) and state in nfa.accepting else EXPAND

    s = bfs((nfa.initial, 0, (0,) * k), successors, math.inf, math.inf, visit)
    return decide(s, not capped, lambda goal: tuple(
        (label, *cfg) for label, cfg in moves(s.parents, goal)),
        configs=len(s.parents))


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


def parikh(word, alphabet):
    """Letter-count vector of `word` in the order given by `alphabet`."""
    pos = {a: i for i, a in enumerate(alphabet)}
    out = [0] * len(pos)
    for ltr in word:
        if ltr not in pos:
            raise GrammarError(f"letter {ltr!r} outside the alphabet")
        out[pos[ltr]] += 1
    return tuple(out)


def serialize_slset(name, shape, s):
    """The `.sls` text that parse_slset reads back as (name, shape, s)."""
    lines = [f"slset {name}", f"dim: {s.dim}"]
    if shape is not None:
        rendered = []
        for w in shape.words:
            if len(w) == 1 and len(w[0]) > 1:
                raise GrammarError(f"shape word {w[0]!r} would read back as {len(w[0])} letters")
            rendered.append(" ".join(w) if any(len(sym) > 1 for sym in w) else "".join(w))
        lines.append("shape: " + ", ".join(rendered))
    for c in s.components:
        base = "(" + ",".join(map(str, c.base)) + ")"
        if c.periods:
            ps = ",".join("(" + ",".join(map(str, p)) + ")" for p in c.periods)
            lines.append(f"linear: base = {base}; periods = {ps}")
        else:
            lines.append(f"linear: base = {base}")
    return "\n".join(lines) + "\n"


def grid_members(a, radius):
    """All vectors the tuple automaton accepts with every component <= radius
    (walked on the determinized, saturated automaton: one dict lookup per
    symbol)."""
    d = va.saturate(va.determinize(a))
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


def oracle_linearset_automaton(ls):
    """The linear set's automaton as products: one equation automaton per
    coordinate j over the tracks (v, x), for v_j - sum_i x_i * p_i[j] =
    base[j], intersected, with the coefficient tracks x projected away and
    the result saturated."""
    k = ls.dim
    periods = [p for p in ls.periods if any(p)]
    m = k + len(periods)
    auto = None
    for j in range(k):
        coeffs = [0] * m
        coeffs[j] = 1
        for i, p in enumerate(periods):
            coeffs[k + i] = -p[j]
        eq = va.equation_automaton(coeffs, ls.base[j])
        auto = eq if auto is None else va.product(auto, eq)
    if periods:
        auto = va.project_tracks(auto, range(k))
    return va.saturate(auto)


def oracle_difference_witness(a, b):
    """A shortest witness of a vector in a and not in b (None if there is
    none): the first accepting state of a breadth-first search, in symbol
    order, of the whole product of a with the complement of b."""
    d = va.product(a, va.complement(b))

    def successors(state):
        return [(sym, t) for sym in range(1 << d.tracks) for t in d.targets(state, sym)]

    s = bfs(d.initial, successors, math.inf, math.inf,
            lambda state: GOAL if state in d.accepting else EXPAND)
    if s.stop != FOUND:
        return None
    return va.decode([sym for sym, _ in moves(s.parents, s.goal)], d.tracks)


def oracle_strip_comment(line):
    """grammar.strip_comment as a loop over the characters."""
    if line.startswith("#"):
        return ""
    for i, ch in enumerate(line):
        if ch == "#" and line[i - 1] in " \t":
            return line[:i]
    return line


def oracle_tree_width(kids, push):
    """engine.tree_width by the sorted formula at every number of children."""
    if push:
        return kids[0]
    return max((max(1, w) + i for i, w in enumerate(sorted(kids, reverse=True))), default=0)


def rendered(res):
    """The words of an enumeration result, as strings."""
    return tuple("".join(w) for w in res.witness)


def image(h, word):
    """The image of `word` under the morphism h."""
    return tuple(x for a in word for x in h.images[a])


def slset(*components):
    """The semilinear set whose components are the (one or more) linear sets given."""
    return SemilinearSet(components[0].dim, components)


def load(name):
    return parse_grammar(fixture_text(name))


def enum_set(g, max_len, steps=400, stack=None, width=None):
    res = enumerate_language(
        g, max_len, Budget(max_steps=steps, max_stack=stack, max_width=width)
    )
    assert res.info["stop"] == SWEPT, f"enumeration of {g.name} not exhausted; raise the budget"
    return set(rendered(res))


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


class Help(Exception):
    """The oracle parser's -h printed its help."""


class Parser(argparse.ArgumentParser):
    """argparse's parser with every flag exact, whose usage errors raise
    cli.UsageError and whose -h raises Help. The subparsers are built from
    the same class, so their errors end here too, and every flag is exact
    (`add_parser` does not pass `allow_abbrev` on)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise cli.UsageError(f"{self.prog}: {message}")

    def exit(self, status=0, message=None):  # only -h exits
        raise Help


def _argparse_type(read):
    """The reader of a row's flag as an argparse type: its ValueError's text
    is the text of the usage error."""
    def typed(text):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


def parsed_fields(args):
    """The fields of a namespace, all but the full parser's `command`, which
    no handler reads. argparse reads a lone `--` that comes after the `--`
    ending the flags as [], which no handler can read; the rows read `--`."""
    return {k: "--" if v == [] else v for k, v in vars(args).items() if k != "command"}


def row_parser(name, p=None):
    """`p` with the arguments of the row `name`: a subparser of
    build_parser, or by default a parser of that row alone."""
    row = cli.TABLE[name]
    if p is None:
        p = Parser(prog=f"igkit {name}")
    for arg, _ in row.inputs:
        p.add_argument(arg)
    for arg, kwargs in row.args:
        if "type" in kwargs:
            kwargs = {**kwargs, "type": _argparse_type(kwargs["type"])}
        p.add_argument(arg, **kwargs)
    p.set_defaults(row=(name, row))
    return p


def build_parser():
    """The argparse parser of every command of `cli.TABLE`, with a
    subparser per group: the oracle of the rows' own reader, cli._parse."""
    ap = Parser(prog="igkit", description=cli.GROUPS[""])
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for name, row in cli.TABLE.items():
        top, _, op = name.partition(" ")
        if not op:
            p = sub.add_parser(name, help=row.help)
        else:
            if top not in groups:  # no dest: a missing subcommand is reported by its choices
                groups[top] = sub.add_parser(top, help=cli.GROUPS[top]).add_subparsers(
                    required=True)
            p = groups[top].add_parser(op, help=row.help)
        row_parser(name, p)
    return ap
