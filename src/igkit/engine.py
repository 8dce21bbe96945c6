"""Bounded exploration of the derivation relation.

Search-based language enumeration, membership and index measurement, and a
table of derivation-tree widths for uncontrolled-width checking. Index stacks
are unbounded in general, so every operation takes a Budget; verdicts are
relative to the budget caps and each result records whether the budgeted
space was swept completely.

The hot path (one-step expansion of a sentential form) runs through
igkit.kernel. Enumeration, membership (and so the per-k searches of
min_index) and the special-production minimum follow one rewrite order per
derivation tree: leftmost without a width cap, subtree at a time with one
(CompiledGrammar.expand). check_uncontrolled searches no forms: it tabulates
the widest tree below each (variable, stack) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import kernel
from .grammar import (
    CONSUME,
    PLAIN,
    PUSH,
    SPECIAL,
    Derivation,
    GrammarError,
    IndexedGrammar,
    SententialForm,
    Terminal,
    Var,
    apply_production,
    start_form,
)
from .search import (
    EXPAND,
    FOUND,
    GOAL,
    HARD_CAP,
    LEAF,
    MAX_STEPS,
    PROVEN,
    REFUTED,
    UNKNOWN,
    Verdict,
    bfs,
    decide,
    moves,
    path,
)

Word = tuple[str, ...]


@dataclass(frozen=True)
class Budget:
    """Search bounds. max_steps (derivation length) is always required so the
    explored space is finite; the width and stack caps default to unbounded.
    hard_cap bounds the forms a search stores (under a width cap, the (form,
    depth) states of the subtree order): a search it stops is reported like
    one the step cap stops, never as a refutation."""

    max_steps: int
    max_width: Optional[int] = None
    max_stack: Optional[int] = None
    hard_cap: int = 1_000_000

    def __post_init__(self):
        for name in ("max_steps", "max_width", "max_stack", "hard_cap"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be >= 0")

    def active_caps(self) -> tuple[str, ...]:
        out = ["max_steps"]
        for name in ("max_width", "max_stack"):
            if getattr(self, name) is not None:
                out.append(name)
        return tuple(out)


@dataclass(frozen=True)
class EnumerationResult:
    words: tuple[Word, ...]
    exhausted: bool
    active_caps: tuple[str, ...]
    forms_seen: int
    stop: str  # why the search stopped: swept, max_steps or hard_cap

    def rendered(self) -> tuple[str, ...]:
        return tuple("".join(w) for w in self.words)


# ---------------------------------------------------------------------------
# grammar compilation for the kernel


class CompiledGrammar:
    """Integer tables consumed by the expansion kernel.

    Encoded forms are tuples of ints: -(tid+1) for terminal tid, and
    stack_id * nv + var_id for a variable occurrence. Stacks are interned in
    an append-only cons pool; id 0 is the empty stack.
    """

    _KIND = {PLAIN: 0, PUSH: 1, CONSUME: 2}

    def __init__(self, g: IndexedGrammar):
        self.g = g
        self.var_names = g.variables
        self.term_names = g.terminals
        self.idx_names = g.indices
        self.var_id = {v: i for i, v in enumerate(g.variables)}
        self.term_id = {t: i for i, t in enumerate(g.terminals)}
        self.idx_id = {f: i for i, f in enumerate(g.indices)}
        self.nv = max(1, len(g.variables))
        by_var: list[list[int]] = [[] for _ in range(self.nv)]
        prods = []
        for pid, p in enumerate(g.productions):
            if p.kind == PUSH:
                row = (1, -1, (), self.var_id[p.rhs[0]], self.idx_id[p.push_index], 1, 0)
            else:
                rhs = tuple(
                    self.var_id[s] if s in self.var_id else -(self.term_id[s] + 1)
                    for s in p.rhs
                )
                nvars = sum(1 for c in rhs if c >= 0)
                lhs_idx = -1 if p.lhs_index is None else self.idx_id[p.lhs_index]
                row = (self._KIND[p.kind], lhs_idx, rhs, -1, -1, nvars, len(rhs) - nvars)
            prods.append(row)
            by_var[self.var_id[p.lhs_var]].append(pid)
        self.prods = tuple(prods)
        self.by_var = tuple(tuple(pids) for pids in by_var)
        self.pool_top = [-1]
        self.pool_rest = [-1]
        self.pool_depth = [0]
        self.intern: dict[tuple[int, int], int] = {}

    # -- decoding ----------------------------------------------------------

    def stack_tuple(self, sid: int) -> tuple[str, ...]:
        out = []
        while sid != 0:
            out.append(self.idx_names[self.pool_top[sid]])
            sid = self.pool_rest[sid]
        return tuple(out)

    def decode_form(self, enc: tuple[int, ...], depths: int = 0) -> SententialForm:
        """The form of `enc`; `depths` is the one the search expanded it with."""
        nd = depths or 1
        items: list = []
        for x in enc:
            if x < 0:
                items.append(Terminal(self.term_names[-x - 1]))
            else:
                sid = x // self.nv // nd
                items.append(Var(self.var_names[x % self.nv], self.stack_tuple(sid)))
        return SententialForm(tuple(items))

    def encode_word(self, w: Word) -> tuple[int, ...]:
        try:
            return tuple(-(self.term_id[s] + 1) for s in w)
        except KeyError as exc:
            raise GrammarError(f"letter {exc.args[0]!r} is not a terminal of {self.g.name}")

    def start(self) -> tuple[int, ...]:
        return (self.var_id[self.g.start],)

    def expand(self, form, budget: Budget, max_terms: int = -1):
        """Successors of `form` under the budget's caps: without a width cap,
        those of its leftmost variable only; with one, those of the deepest
        sibling group only.

        Every derivation reorders into a leftmost one with the same length,
        stacks and terminals; the terminal count never falls, so max_terms
        prunes alike in every order; and `_can_yield` holds on every form of
        a derivation of the target. Only widths depend on the order, and
        leftmost order loses words under a width cap. A derivation tree's
        minimum width is reached by an order that finishes each child subtree
        before it starts the next (Sethi & Ullman 1970): the subtree order
        keeps exactly those orders, so a search bounded by the minimum width
        of a tree keeps its words, proofs and minimums (like the leftmost
        search, it can need more levels to sweep). Forms then carry
        `_subtree_depths(budget)` depth values (decode them with that count),
        and the hard cap counts (form, depth) states. kernel.expand with a
        width cap and no depths gives the search over every order."""
        return kernel.expand(
            self, form,
            -1 if budget.max_width is None else budget.max_width,
            -1 if budget.max_stack is None else budget.max_stack,
            max_terms, _subtree_depths(budget),
        )


def _subtree_depths(budget: Budget) -> int:
    """The depth values of a form in subtree order: every sibling group holds
    a variable, so the depth of the deepest one is below the width cap. 0
    without a width cap, where the search is leftmost and carries no depths."""
    return 0 if budget.max_width is None else max(1, budget.max_width)


def _is_terminal_enc(form: tuple[int, ...]) -> bool:
    # a plain loop: called once per stored form, and all() over a generator
    # costs a quarter more on twin.ig enumeration
    for x in form:
        if x >= 0:
            return False
    return True


def _derivation(c: CompiledGrammar, successors, parents: dict, goal, depths: int,
                key=None) -> Derivation:
    """Decode the derivation of `goal` that a search stored; `key` maps a
    search node to its encoded form."""
    nodes = path(parents, goal)
    steps = tuple((pid, pos) for pos, pid, _ in moves(successors, parents, goal))
    return Derivation(
        tuple(c.decode_form(n if key is None else key(n), depths) for n in nodes), steps)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_language(g: IndexedGrammar, max_len: int, budget: Budget) -> EnumerationResult:
    """Words of L(g) of length <= max_len reachable within the budget, in
    length-lexicographic order. `exhausted` is True when the budgeted space
    was swept completely, making the list exact under the active caps."""
    c = CompiledGrammar(g)
    words: list[tuple[int, ...]] = []

    def visit(form):
        if _is_terminal_enc(form):
            words.append(form)
            return LEAF
        return EXPAND

    s = bfs(c.start(), lambda f: c.expand(f, budget, max_len), budget.max_steps,
            budget.hard_cap, visit)
    decoded = sorted(
        (tuple(c.term_names[-x - 1] for x in w) for w in words),
        key=lambda w: (len(w), w),
    )
    return EnumerationResult(
        words=tuple(decoded),
        exhausted=s.swept,
        active_caps=budget.active_caps(),
        forms_seen=len(s.parents),
        stop=s.stop,
    )


# ---------------------------------------------------------------------------
# membership


def _yield_blocks(form: tuple[int, ...]) -> tuple[list[tuple[int, ...]], int]:
    blocks = []
    cur: list[int] = []
    nvars = 0
    for x in form:
        if x < 0:
            cur.append(x)
        else:
            blocks.append(tuple(cur))
            cur = []
            nvars += 1
    blocks.append(tuple(cur))
    return blocks, nvars


def _can_yield(form: tuple[int, ...], target: tuple[int, ...]) -> bool:
    """Necessary condition for `form` to derive exactly `target`: the fixed
    terminal blocks embed into the target, in order, anchored at both ends."""
    blocks, nvars = _yield_blocks(form)
    if nvars == 0:
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


def membership(g: IndexedGrammar, w: Word, budget: Budget, caps_exact: bool = False) -> Verdict:
    """Search for a derivation of w. Refuted is only claimed when the budgeted
    space is exhausted and the caller asserts (caps_exact) that the budget's
    width/stack caps cover every derivation of words up to |w|."""
    c = CompiledGrammar(g)
    target = c.encode_word(w)

    def successors(form):
        return c.expand(form, budget, len(target))

    def visit(form):
        if _is_terminal_enc(form):
            return GOAL if form == target else LEAF
        return EXPAND if _can_yield(form, target) else LEAF

    s = bfs(c.start(), successors, budget.max_steps, budget.hard_cap, visit)
    return decide(s, caps_exact, lambda goal: _derivation(c, successors, s.parents, goal,
                                                          _subtree_depths(budget)),
                  forms=len(s.parents))


def min_index(g: IndexedGrammar, w: Word, budget: Budget, caps_exact: bool = False) -> Verdict:
    """Proven with the smallest k (`info["k"]`) such that some derivation of
    w within the budget has index k, and that derivation; refuted when the
    (caps_exact) membership search refutes w; unknown when that search ends
    without a proof, or when the hard cap cut short the search for some
    smaller k. `info` has no `forms`: each membership search reports its
    own."""
    full = membership(g, w, budget, caps_exact)
    if not full.is_proven:
        return Verdict(full.kind, None, {"stop": full.info["stop"]})
    for k in range(1, full.witness.index()):
        v = membership(g, w, replace(budget, max_width=k))
        if v.is_proven:
            return Verdict(PROVEN, v.witness, {"k": k, "stop": FOUND})
        if v.info["stop"] == HARD_CAP:
            return Verdict(UNKNOWN, None, {"stop": HARD_CAP})
    return Verdict(PROVEN, full.witness, {"k": full.witness.index(), "stop": FOUND})


def special_count_min(g: IndexedGrammar, w: Word, budget: Budget,
                      caps_exact: bool = False) -> Verdict:
    """Proven with the minimum number (`info["k"]`) of special-production
    applications over all derivations of w found within the budget, and a
    derivation that reaches it; refuted when the search swept without one
    and the caller asserts (caps_exact) that the caps cover every derivation
    of w; unknown otherwise, and whenever the hard cap cut the search short."""
    c = CompiledGrammar(g)
    target = c.encode_word(w)
    specials = frozenset(
        pid for pid, p in enumerate(g.productions) if g.classify(p) == SPECIAL
    )
    best: Optional[int] = None
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
    return Verdict(PROVEN, _derivation(c, step, s.parents, best_state, _subtree_depths(budget),
                                       key=lambda st: st[0]),
                   {"k": best, "stop": s.stop})


# ---------------------------------------------------------------------------
# uncontrolled-width checking


def check_uncontrolled(g: IndexedGrammar, k: int, budget: Budget) -> Verdict:
    """Refuted with a witness when a successful derivation within the stack
    cap has a form wider than k; proven when none has, whatever its length.

    Each child of a rewrite gets its own copy of the stack, so the widest
    derivation tree below a (variable, stack) pair depends on that pair
    alone, and `_widths` tabulates it. Without a stack cap, a stack of depth d
    needs d pushes, so max_steps bounds the depth: the depth cap doubles from
    1 up to max_steps, and the first table that refutes, or that left out no
    push, gives the verdict. When the last one left out a push and refutes
    nothing, the answer is unknown. The hard cap counts the pairs of a table.
    The budget's width cap is ignored: it would hide the forms looked for.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    c = CompiledGrammar(g)
    start = c.start()[0]
    if budget.max_stack is not None:
        caps = [budget.max_stack]
    else:
        caps, d = [], 1
        while d < budget.max_steps:
            caps.append(d)
            d *= 2
        caps.append(budget.max_steps)
    for cap in caps:
        s, value, back, cut = _widths(c, start, k, replace(budget, max_width=None, max_stack=cap))
        info = {"exhausted": False, "caps": budget.active_caps(), "stop": s.stop,
                "forms": len(s.parents)}
        if s.stop == HARD_CAP:
            return Verdict(UNKNOWN, None, info)
        if value.get(start, 0) > k:
            witness = _widest_derivation(g, back, (start, k + 1))
            return Verdict(REFUTED, witness, {**info, "stop": FOUND, "width": witness.index()})
        if budget.max_stack is not None or not cut:
            return Verdict(PROVEN, None, {**info, "exhausted": True})
    return Verdict(UNKNOWN, None, {**info, "stop": MAX_STEPS})


def _widths(c: CompiledGrammar, start: int, k: int, budget: Budget):
    """The widest productive derivation tree below each (variable, stack)
    pair reachable from `start` within the stack cap, saturated at k + 1. A
    pair is encoded like a variable occurrence, and its rules are the
    one-step successors of the form that holds it alone.

    A tree's widest form, over every rewrite order, is max(1, the sum over
    its children), a terminal child counting 0. The values are a monotone
    fixpoint over the productions (Knuth 1977), computed with a worklist over
    reverse dependencies; it stops once the start pair reaches k + 1. For
    each (pair, value) it keeps the first back-pointer that reached it: the
    production and the children's (pair, value) entries, all of them earlier
    ones, so the tree they build is finite on cyclic grammars too.

    Returns the search that discovered the pairs (swept, or stopped by the
    hard cap), the values, the back-pointers and whether a push was left out."""
    leaves: list = []  # the rules without variable children
    users: dict = {}  # pair -> the rules with it among their children
    cut = False

    def children(pair):
        nonlocal cut
        sid, vid = divmod(pair, c.nv)
        if c.pool_depth[sid] >= budget.max_stack:
            cut = cut or any(c.prods[pid][0] == 1 for pid in c.by_var[vid])
        rules = [(pid, tuple(x for x in f if x >= 0)) for _, pid, f in c.expand((pair,), budget)]
        for pid, kids in rules:
            if not kids:
                leaves.append((pair, pid, kids))
            for kid in set(kids):
                users.setdefault(kid, []).append((pair, pid, kids))
        return [(pid, kid) for pid, kids in rules for kid in kids]

    s = bfs(start, children, math.inf, budget.hard_cap)
    value: dict = {}
    back: dict = {}
    top = k + 1
    risen: list = []  # every pair whose value rose, in order

    def offer(pair, pid, kids):
        if all(kid in value for kid in kids):
            v = min(top, max(1, sum(value[kid] for kid in kids)))
            if v > value.get(pair, 0):
                back[pair, v] = (pid, tuple((kid, value[kid]) for kid in kids))
                value[pair] = v
                risen.append(pair)

    for rule in leaves:
        offer(*rule)
    for kid in risen:  # the loop also takes the pairs appended as it runs
        if value.get(start, 0) == top:
            break
        for pair, pid, kids in users.get(kid, ()):
            offer(pair, pid, kids)
    return s, value, back, cut


def _widest_derivation(g: IndexedGrammar, back: dict, root: tuple) -> Derivation:
    """The derivation of the tree that `back` holds below the entry `root`.
    It first rewrites every node of value at least 2, leftmost first: each
    such node's children sum to at least its value, so that reaches a form
    with at least the root's value in variables. Then it finishes the rest,
    leftmost."""
    form = start_form(g)
    entries = [root]  # the entry below each item of the form; None for a terminal
    forms, steps = [form], []
    for wide in (True, False):
        i = 0
        while i < len(entries):
            e = entries[i]
            if e is None or (wide and e[1] < 2):
                i += 1
                continue
            pid, kids = back[e]
            p = g.productions[pid]
            form = apply_production(g, form, i, p)
            kids = iter(kids)
            entries[i:i + 1] = [next(kids) if isinstance(x, Var) else None
                                for x in form.items[i:i + len(p.rhs)]]
            forms.append(form)
            steps.append((pid, i))
    return Derivation(tuple(forms), tuple(steps))
