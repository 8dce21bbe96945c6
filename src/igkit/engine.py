"""Bounded exploration of the derivation relation.

Search-based language enumeration, membership and index measurement, and
tables over (variable, stack) pairs (`tabulate`): one `tree_table` of the
values and widths of derivation trees, read for the words of a width-capped
enumeration here and for letter counts in igkit.counters, and the widths of
uncontrolled-width checking. Index stacks are unbounded in general, so every
operation takes a Budget; verdicts are relative to the budget caps, and each
one's `info["stop"]` is SWEPT exactly when the space was swept.

The hot path (one-step expansion of a sentential form) runs through
igkit.kernel. Membership (and so min_index) and enumeration follow one
rewrite order per derivation tree: leftmost without a width cap, subtree at
a time with one (CompiledGrammar.expand).
Under a width cap membership ranks its (form, index) states by index, so
its first witness has the least index, and min_index reads k off it: one
search with a width cap, and without one a leftmost search for an upper
bound i and one search at width i - 1. An enumeration under a width cap
whose stack is bounded (a stack cap, or no push production) searches no
forms: it reads the words below each pair, with their least widths and
sizes, off the tree table (`_word_table`), as check_uncontrolled tabulates
the widest tree below each pair. A witness's forms are made from its
steps by grammar.apply_production (`_derivation`).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Optional

from . import kernel, record, replace
from .grammar import (
    PUSH,
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
    SWEPT,
    UNKNOWN,
    Verdict,
    bfs,
    decide,
    moves,
)

Word = tuple[str, ...]


@record
class Budget:
    """Search bounds. max_steps (derivation length) is always required so the
    explored space is finite; the width and stack caps default to unbounded.
    hard_cap bounds the forms a search stores (under a width cap, the (form,
    depth) states of the subtree order, and in membership and min_index the
    (form, index) states of those), and the pairs and the entries of a
    table: a search or table it stops is reported like one the step cap
    stops, never as a refutation. min_index gives the cap to each of its one
    or two searches."""

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


# ---------------------------------------------------------------------------
# grammar compilation for the kernel


class CompiledGrammar:
    """Integer tables consumed by the expansion kernel.

    Encoded forms are tuples of ints: `term_code[t]`, -(tid + 2), for the
    terminal t of id tid, which `letters[-x]` reads back (not -(tid + 1):
    hash(-1) == hash(-2), so forms that swap the first two terminals would
    hash alike), and stack_id * nv + var_id for a variable occurrence. Stacks
    are interned in an append-only cons pool; id 0 is the empty stack.
    """

    def __init__(self, g: IndexedGrammar):
        self.g = g
        self.var_names = g.variables
        self.idx_names = g.indices
        self.var_id = var_id = {v: i for i, v in enumerate(g.variables)}
        self.term_code = {t: -i for i, t in enumerate(g.terminals, 2)}
        self.letters = (None, None) + g.terminals
        idx_id = {f: i for i, f in enumerate(g.indices)}
        code = {**self.term_code, **var_id}  # of each symbol of a right side
        self.nv = max(1, len(g.variables))
        by_var: list[list[int]] = [[] for _ in range(self.nv)]
        prods = []
        for pid, p in enumerate(g.productions):
            if p.push_index is not None:
                row = (1, -1, (), var_id[p.rhs[0]], idx_id[p.push_index], 1, 0)
            else:
                rhs = tuple(map(code.__getitem__, p.rhs))
                nvars = sum(map(var_id.__contains__, p.rhs))
                kind, lhs_idx = (0, -1) if p.lhs_index is None else (2, idx_id[p.lhs_index])
                row = (kind, lhs_idx, rhs, -1, -1, nvars, len(rhs) - nvars)
            prods.append(row)
            by_var[var_id[p.lhs_var]].append(pid)
        self.prods = tuple(prods)
        self.by_var = tuple(map(tuple, by_var))
        self.pool_top = [-1]
        self.pool_rest = [-1]
        self.pool_depth = [0]
        self.intern: dict[tuple[int, int], int] = {}

    # -- decoding ----------------------------------------------------------

    def decode_form(self, enc: tuple[int, ...], depths: int = 0) -> SententialForm:
        """The form of `enc`; `depths` is the one the search expanded it with.
        Only the kernel's tests and the benchmark's tracer decode."""
        nd = depths or 1
        items: list = []
        for x in enc:
            if x < 0:
                items.append(Terminal(self.letters[-x]))
                continue
            sid, stack = x // self.nv // nd, []
            while sid != 0:
                stack.append(self.idx_names[self.pool_top[sid]])
                sid = self.pool_rest[sid]
            items.append(Var(self.var_names[x % self.nv], tuple(stack)))
        return SententialForm(tuple(items))

    def encode_word(self, w: Word) -> tuple[int, ...]:
        try:
            return tuple(map(self.term_code.__getitem__, w))
        except KeyError as exc:
            raise GrammarError(f"letter {exc.args[0]!r} is not a terminal of {self.g.name}")

    def start(self) -> tuple[int, ...]:
        return (self.var_id[self.g.start],)

    def push(self, idx: int, sid: int) -> int:
        """The pool id of the stack `sid` with the index `idx` pushed on top."""
        s2 = self.intern.get((idx, sid))
        if s2 is None:
            s2 = self.intern[idx, sid] = len(self.pool_top)
            self.pool_top.append(idx)
            self.pool_rest.append(sid)
            self.pool_depth.append(self.pool_depth[sid] + 1)
        return s2

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
        `_subtree_depths(budget)` depth values, and the hard cap counts
        (form, depth) states; a witness's forms come from its steps by
        grammar.apply_production. The subtree order serves membership,
        min_index and the width-capped enumerations whose stack is
        unbounded; the others read the words of `tree_table`.
        Membership labels each form with the index of its path and ranks the
        (form, index) states by it, so a least-index derivation, found in
        subtree order, is its first witness. kernel.expand with a width cap
        and no depths gives every order."""
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


def _derivation(g: IndexedGrammar, steps) -> Derivation:
    """The derivation that applies each (production, position) step to the
    start form by `apply_production`: a step that does not apply raises."""
    forms = [start_form(g)]
    for pid, pos in steps:
        forms.append(apply_production(g, forms[-1], pos, g.productions[pid]))
    return Derivation(tuple(forms), tuple(steps))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_language(g: IndexedGrammar, max_len: int, budget: Budget) -> Verdict:
    """Proven, with the words of L(g) of length <= max_len reachable within
    the budget, in length-lexicographic order. `info` holds `stop` (why the
    search stopped: swept, max_steps or hard_cap; the list is exact under
    the active caps when it is SWEPT) and `forms` (the forms stored). Under
    a width cap with a bounded stack (a stack cap, or no push production)
    the words come from `_word_table`, otherwise from the search."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    c = CompiledGrammar(g)
    if budget.max_width is not None and (
            budget.max_stack is not None or all(p.kind != PUSH for p in g.productions)):
        words, stop, forms = _word_table(c, max_len, budget)
    else:
        words = []

        def visit(form):
            if _is_terminal_enc(form):
                words.append(form)
                return LEAF
            return EXPAND

        s = bfs(c.start(), lambda f: c.expand(f, budget, max_len), budget.max_steps,
                budget.hard_cap, visit)
        stop, forms = s.stop, len(s.parents)
    decoded = sorted((tuple(c.letters[-x] for x in w) for w in words),
                     key=lambda w: (len(w), w))
    return Verdict(PROVEN, tuple(decoded), {"stop": stop, "forms": forms})


def _yield_blocks(form: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The terminal runs of a form: before, between and after its variables."""
    blocks: list[tuple[int, ...]] = [()]
    for x in form:
        if x < 0:
            blocks[-1] += (x,)
        else:
            blocks.append(())
    return blocks


def _word_table(c: CompiledGrammar, max_len: int, budget: Budget):
    """The words of a width-capped enumeration, read off the `tree_table` of
    words: the start words of least size at most max_steps, which the search
    finds; the stop (MAX_STEPS when the step cap left one out); and the
    pairs plus entries, which the hard cap counts too."""
    runs = [_yield_blocks((0,) if row[0] == 1 else row[2]) for row in c.prods]
    entries, stop, size = tree_table(c, budget, runs, lambda word: len(word) <= max_len)
    words = {w for (w, _), n in entries.items() if n <= budget.max_steps}
    if stop == SWEPT and any(w not in words for w, _ in entries):
        stop = MAX_STEPS
    return words, stop, size


# ---------------------------------------------------------------------------
# membership


def _can_yield(form: tuple[int, ...], target: tuple[int, ...]) -> bool:
    """Necessary condition for `form` to derive exactly `target`: the fixed
    terminal blocks embed into the target, in order, anchored at both ends.
    One pass: the leading terminals from the front, the trailing ones from
    the back, then each block between two variables at its first place."""
    n = len(target)
    lo = 0
    for x in form:
        if x >= 0:
            break
        if lo == n or target[lo] != x:
            return False
        lo += 1
    else:
        return lo == n
    hi = n
    last = len(form) - 1
    while form[last] < 0:
        hi -= 1
        if hi < lo or target[hi] != form[last]:
            return False
        last -= 1
    pos = lo
    i = lo + 1  # form[lo] is the first variable
    while i < last:
        if form[i] >= 0:
            i += 1
            continue
        j = i + 1
        while form[j] < 0:  # form[last] is a variable
            j += 1
        block = form[i:j]
        first, m = form[i], j - i
        while True:
            if pos + m > hi:
                return False
            if target[pos] == first and target[pos:pos + m] == block:
                break
            pos += 1
        pos += m
        i = j
    return True


def membership(g: IndexedGrammar, w: Word, budget: Budget, caps_exact: bool = False) -> Verdict:
    """Search for a derivation of w. Refuted is only claimed when the budgeted
    space was swept and the caller asserts (caps_exact) that the budget's
    width/stack caps cover every derivation of words up to |w|.

    Under a width cap the search runs over (form, index) states, the index
    being the widest form on the state's path, ranked by index (`search.bfs`
    with `rank`): its witness is a derivation of least index, and the
    shortest among those. A terminal form adds no width, so a goal's index
    is its parent's, and taking the first goal stored is exact."""
    c = CompiledGrammar(g)
    target = c.encode_word(w)

    def expand(form):
        return c.expand(form, budget, len(target))

    def visit(form):
        if _is_terminal_enc(form):
            return GOAL if form == target else LEAF
        return EXPAND if _can_yield(form, target) else LEAF

    if budget.max_width is None:
        s = bfs(c.start(), expand, budget.max_steps, budget.hard_cap, visit)
    else:
        grow = [0 if row[0] == 1 else row[5] - 1 for row in c.prods]  # the width a rewrite adds

        def successors(state):
            form, k = state
            width = len(form)
            for x in form:
                if x < 0:
                    width -= 1
            out = []
            for pos, pid, f2 in expand(form):
                w2 = width + grow[pid]
                out.append((pos, pid, (f2, w2 if w2 > k else k)))
            return out

        s = bfs((c.start(), 1), successors, budget.max_steps, budget.hard_cap,
                lambda state: visit(state[0]), rank=True)
    return decide(s, caps_exact, lambda goal: _derivation(
        g, [(pid, pos) for pos, pid, _ in moves(s.parents, goal)]), forms=len(s.parents))


def min_index(g: IndexedGrammar, w: Word, budget: Budget, caps_exact: bool = False) -> Verdict:
    """Proven with the smallest k (`info["k"]`) such that some derivation of
    w within the budget has index k, and that derivation; refuted when the
    (caps_exact) membership search refutes w; unknown when that search ends
    without a proof, or when the hard cap cut short the search below its
    witness's index.

    Under a width cap, membership's first witness has the least index, so
    one search answers. Without one, the leftmost search gives an upper
    bound i, and one search at width cap i - 1 the least index below it.
    `info` has no `forms`: each membership search reports its own."""
    v = membership(g, w, budget, caps_exact)
    if not v.is_proven:
        return Verdict(v.kind, None, {"stop": v.info["stop"]})
    k = v.witness.index()
    if budget.max_width is None and k > 1:
        narrow = membership(g, w, replace(budget, max_width=k - 1))
        if narrow.info["stop"] == HARD_CAP:
            return Verdict(UNKNOWN, None, {"stop": HARD_CAP})
        if narrow.is_proven:
            v, k = narrow, narrow.witness.index()
    return Verdict(PROVEN, v.witness, {"k": k, "stop": FOUND})


# ---------------------------------------------------------------------------
# uncontrolled-width checking


def check_uncontrolled(g: IndexedGrammar, k: int, budget: Budget) -> Verdict:
    """Refuted with a witness when a successful derivation within the stack
    cap has a form wider than k; proven when none has, whatever its length.

    Each child of a rewrite gets its own copy of the stack, so the widest
    derivation tree below a (variable, stack) pair depends on that pair
    alone. A `tabulate` holds it, saturated at k + 1, as the values a pair
    rises to: a tree's widest form, over every rewrite order, is max(1, the
    sum over its children), a terminal child counting 0. For each (pair,
    value) it keeps the first back-pointer that reached it: the production
    and the children's (pair, value) entries, all of them earlier ones, so
    the tree they build is finite on cyclic grammars too. The table stops
    when the start pair reaches k + 1, and the hard cap counts its pairs.
    The budget's width cap is ignored: it would hide the forms looked for.
    `info` holds `stop` and `forms` (the pairs tabulated)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    c = CompiledGrammar(g)
    start = c.start()[0]
    value: dict = {}
    back: dict = {}
    top = k + 1

    def fire(rule, place, item):
        pair, pid, kids = rule
        if all(x in value for x in kids):
            v = min(top, max(1, sum(value[x] for x in kids)))
            if v > value.get(pair, 0):
                back[pair, v] = (pid, tuple((x, value[x]) for x in kids))
                value[pair] = v
                return ((pair, v),)
        return ()

    pairs, stop = tabulate(c, start, budget, fire,
                           lambda: FOUND if value.get(start, 0) == top else None)
    info = {"stop": stop, "forms": pairs}
    if stop != FOUND:
        return Verdict(PROVEN if stop == SWEPT else UNKNOWN, None, info)
    return Verdict(REFUTED, _widest_derivation(g, back, (start, top)), info)


def tree_width(kids, push: bool) -> int:
    """The least width of a derivation tree whose root's children have least
    widths `kids` (Sethi & Ullman 1970): a leaf is 1, and children of widths
    c1 >= c2 >= … give max(c1, c2 + 1, …). The search checks no form before
    the first rewrite that is not a push (the start form, and the forms the
    pushes after it make), so a root rewritten to terminals alone is 0 and a
    push root passes its child's width on; as a child, 0 counts as 1. One
    or two children need no sort: two of equal width make one more."""
    if push:
        return kids[0]
    if len(kids) == 1:
        return kids[0] or 1
    if len(kids) == 2:
        a, b = kids[0] or 1, kids[1] or 1
        return max(a, b) + (a == b)
    return max((max(1, w) + i for i, w in enumerate(sorted(kids, reverse=True))), default=0)


def tree_table(c: CompiledGrammar, budget: Budget, runs, fits):
    """The values of the derivation trees below the start pair: a `tabulate`
    whose items are ((value, width), size), the least size (rewrites) of a
    tree with that value and width (`tree_width`; 0 without a width cap, as
    no reader wants it and a nullable pair of children makes it unbounded).
    A rule's value joins by `+` its runs and its children's values (run 0,
    child 1, run 1, …): words are tuples, letter counts ints. Values and
    widths only grow up a tree, so a value that `fits` rejects (a leaf's own
    run too), an entry over the width cap and a rule with more children than
    the cap are dropped. Returns the start pair's {(value, width): least
    size}, the stop, and the pairs plus entries, which the hard cap counts."""
    cap = math.inf if budget.max_width is None else budget.max_width
    width = tree_width if budget.max_width is not None else lambda kids, push: 0
    # per production: its runs and whether it pushes, or None when it can add nothing
    joins = [(run, row[0] == 1) if row[5] <= max(1, cap) and fits(run[0]) else None
             for run, row in zip(runs, c.prods)]
    table: dict = defaultdict(dict)  # pair -> {(value, width): least size}
    size = 0

    def fire(rule, j, item):
        nonlocal size
        pair, pid, kids = rule
        if joins[pid] is None:
            return ()
        run, push = joins[pid]
        part = [(run[0], (), 1)]  # (value so far, children's widths, size)
        # a combination that holds the item is built once, at the first place
        # of its child that holds it: the places before take the other entries
        for i, x in enumerate(kids):
            es = (item,) if i == j else table[x].items()
            if i < j and x == kids[j]:
                es = [e for e in es if e[0] != item[0]]
            if not es:
                return ()
            r = run[i + 1]
            part = [(u, ws + (w,), n + m) for v, ws, n in part for (y, w), m in es
                    if fits(u := v + y + r)]
        got, new = table[pair], []
        for v, ws, n in part:
            key = (v, width(ws, push))
            if key[1] <= cap and n < got.get(key, math.inf):
                size += key not in got
                got[key] = n
                new.append((pair, (key, n)))
        return new

    pairs, stop = tabulate(c, start := c.start()[0], budget, fire,
                           lambda: HARD_CAP if size > budget.hard_cap else None)
    return table[start], stop, pairs + size


def tabulate(c: CompiledGrammar, start: int, budget: Budget, fire, stopped):
    """A monotone fixpoint over the (variable, stack) pairs reachable from
    `start` within the stack cap (Knuth 1977). A pair is encoded like a
    variable occurrence; its rules, read from its variable's rows in
    `c.prods`, are (pair, pid, the pairs of its variable children).
    The caller owns the values: `fire(rule, place, item)` returns the new
    (pair, item)s of the rule's pair, combining the item of the child at
    `place` with the items its other children hold (all of them with place
    -1 and item None, as each rule is first fired); a new item fires once
    for each place of its pair among a rule's children. That goes on until
    `stopped()` returns a stop instead of None.

    Without a stack cap, d pushes make a stack of depth d, so the table
    grows at depth caps 1, 2, 4, … up to max_steps until a round stops short
    of SWEPT or leaves out no push. Each round keeps the pairs, rules and
    items, and adds only the push rules the last cap left out and the pairs
    they reach. Returns the number of pairs and the stop: `stopped()`'s,
    HARD_CAP when the pairs outgrow the hard cap, MAX_STEPS when the last
    round still left out a push."""
    users: dict = {}  # pair -> (rule, place) for each place of it among a rule's children
    known: set = set()  # the pairs of the earlier rounds
    items: list = []  # (pair, item), in the order found
    new: list = []  # the rules found in this round
    cut: list = []  # the push rules the depth cap leaves out
    cap = min(1, budget.max_steps) if budget.max_stack is None else budget.max_stack
    limit = budget.max_steps + 1 if budget.max_stack is None else cap  # no push goes past it

    def add(rule):
        new.append(rule)
        for place, kid in enumerate(rule[2]):
            users.setdefault(kid, []).append((rule, place))
        return [(kid,) for kid in rule[2] if kid not in known]

    def children(pair):
        if pair is None:  # the root of a round
            return roots
        out = []
        sid, vid = divmod(pair, c.nv)
        for pid in c.by_var[vid]:
            kind, lhs_idx, rhs, push_var, push_idx = c.prods[pid][:5]
            if kind == 1 and c.pool_depth[sid] < limit:
                kids = (c.push(push_idx, sid) * c.nv + push_var,)
            elif kind == 0 or kind == 2 and sid and c.pool_top[sid] == lhs_idx:
                kids = tuple((c.pool_rest[sid] if kind else sid) * c.nv + x for x in rhs if x >= 0)
            else:
                continue
            if kind == 1 and c.pool_depth[sid] >= cap:
                cut.append((pair, pid, kids))
            else:
                out += add((pair, pid, kids))
        return out

    roots, i = [(start,)], 0
    while True:
        s = bfs(None, children, math.inf, budget.hard_cap + 1 - len(known))
        known.update(list(s.parents)[1:])
        new.sort(key=lambda rule: not rule[2])  # leaves last: the others see only old items
        for rule in new:
            items.extend(fire(rule, -1, None))
        new.clear()
        while (stop := stopped()) is None and i < len(items):  # items grows as it runs
            pair, x = items[i]
            i += 1
            for rule, place in users.get(pair, ()):
                items.extend(fire(rule, place, x))
        stop = s.stop if s.stop != SWEPT else stop or SWEPT
        if stop != SWEPT or not cut:
            return len(known), stop
        if cap == budget.max_steps:
            return len(known), MAX_STEPS
        cap = min(2 * cap, budget.max_steps)
        roots = [x for rule in cut for x in add(rule)]
        cut.clear()


def _widest_derivation(g: IndexedGrammar, back: dict, root: tuple) -> Derivation:
    """The derivation of the tree that `back` holds below the entry `root`.
    It first rewrites every node of value at least 2, leftmost first: each
    such node's children sum to at least its value, so that reaches a form
    with at least the root's value in variables. Then it finishes the rest,
    leftmost."""
    entries = [root]  # the entry below each item of the form; None for a terminal
    steps = []
    for wide in (True, False):
        i = 0
        while i < len(entries):
            e = entries[i]
            if e is None or (wide and e[1] < 2):
                i += 1
                continue
            pid, kids = back[e]
            kids = iter(kids)
            entries[i:i + 1] = [next(kids) if x in g.variable_set else None
                                for x in g.productions[pid].rhs]
            steps.append((pid, i))
    return _derivation(g, steps)
