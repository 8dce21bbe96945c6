"""Bounded exploration of the derivation relation.

Search-based language enumeration, membership, index measurement and
uncontrolled-width refutation. Index stacks are unbounded in general, so
every operation takes a Budget; verdicts are relative to the budget caps and
each result records whether the budgeted space was swept completely.

The hot path (one-step expansion of a sentential form) runs through
igkit.kernel, which picks the compiled kernel when it is available.
Enumeration, membership (and so the per-k searches of min_index) and the
special-production minimum follow one rewrite order per derivation tree:
leftmost without a width cap, subtree at a time with one (CompiledGrammar.expand).
Phase 1 of check_uncontrolled looks for the widest forms and tries every order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from .search import EXPAND, FOUND, GOAL, HARD_CAP, LEAF, Search, bfs, moves, path

PROVEN = "proven"
REFUTED = "refuted"
UNKNOWN = "unknown"

Word = tuple[str, ...]


class NotAMember(Exception):
    """Raised by operations whose precondition is membership of the word."""

    def __init__(self, message: str, exhausted: bool):
        super().__init__(message)
        self.exhausted = exhausted


@dataclass(frozen=True)
class Budget:
    """Search bounds. max_steps (derivation length) is always required so the
    explored space is finite; the width, stack and yield caps default to
    unbounded. hard_cap bounds the forms a search stores (under a width cap,
    the (form, depth) states of the subtree order): a search it stops is
    reported like one the step cap stops, never as a refutation."""

    max_steps: int
    max_width: Optional[int] = None
    max_stack: Optional[int] = None
    max_yield: Optional[int] = None
    hard_cap: int = 1_000_000

    def __post_init__(self):
        for name in ("max_steps", "max_width", "max_stack", "max_yield", "hard_cap"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be >= 0")

    def active_caps(self) -> tuple[str, ...]:
        out = ["max_steps"]
        for name in ("max_width", "max_stack", "max_yield"):
            if getattr(self, name) is not None:
                out.append(name)
        return tuple(out)


@dataclass
class Verdict:
    kind: str
    witness: Optional[Derivation] = None
    info: dict = field(default_factory=dict)

    @property
    def is_proven(self) -> bool:
        return self.kind == PROVEN

    @property
    def is_refuted(self) -> bool:
        return self.kind == REFUTED

    @property
    def is_unknown(self) -> bool:
        return self.kind == UNKNOWN


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

    # -- encoding ----------------------------------------------------------

    def intern_stack(self, stack: tuple[str, ...]) -> int:
        sid = 0
        for sym in reversed(stack):
            key = (self.idx_id[sym], sid)
            nxt = self.intern.get(key)
            if nxt is None:
                nxt = len(self.pool_top)
                self.pool_top.append(key[0])
                self.pool_rest.append(sid)
                self.pool_depth.append(self.pool_depth[sid] + 1)
                self.intern[key] = nxt
            sid = nxt
        return sid

    def stack_tuple(self, sid: int) -> tuple[str, ...]:
        out = []
        while sid != 0:
            out.append(self.idx_names[self.pool_top[sid]])
            sid = self.pool_rest[sid]
        return tuple(out)

    def encode_form(self, form: SententialForm) -> tuple[int, ...]:
        items = []
        for it in form.items:
            if isinstance(it, Terminal):
                items.append(-(self.term_id[it.symbol] + 1))
            else:
                items.append(self.intern_stack(it.stack) * self.nv + self.var_id[it.symbol])
        return tuple(items)

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

    def expand(self, form, budget: Budget, *, max_terms: int = -1, skeleton: bool = False,
               subtrees: bool = False):
        """Successors of `form` under the budget's caps: without a width cap,
        those of its leftmost variable only; with one, those of every
        variable, or with `subtrees` those of the deepest sibling group only.

        Every derivation reorders into a leftmost one with the same length,
        stacks and terminals; the terminal count never falls, so max_terms
        prunes alike in every order; `_can_yield` holds on every form of a
        derivation of the target; and a swept leftmost closure without () is
        closed under successors, so the `dead` set of `check_uncontrolled`
        stays sound. Only widths depend on the order, and leftmost order
        loses words under a width cap. A derivation tree's minimum width is
        reached by an order that finishes each child subtree before it starts
        the next (Sethi & Ullman 1970): `subtrees` keeps exactly those orders,
        so a search bounded by the minimum width of a tree keeps its words,
        proofs and minimums (like the leftmost search, it can need more levels
        to sweep). Forms then carry `_subtree_depths(budget)` depth values
        (decode them with that count), and the hard cap counts (form, depth)
        states. A search for the widest forms needs every order;
        max_width=10**9 gives the all-orders search."""
        return kernel.expand(
            form, self.by_var, self.prods, self.nv,
            self.pool_top, self.pool_rest, self.pool_depth, self.intern,
            -1 if budget.max_width is None else budget.max_width,
            -1 if budget.max_stack is None else budget.max_stack,
            max_terms, 1 if skeleton else 0, 1 if budget.max_width is None else 0,
            _subtree_depths(budget) if subtrees else 0,
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
    max_terms = max_len if budget.max_yield is None else min(max_len, budget.max_yield)
    words: list[tuple[int, ...]] = []

    def visit(form):
        if _is_terminal_enc(form):
            words.append(form)
            return LEAF
        return EXPAND

    s = bfs(c.start(), lambda f: c.expand(f, budget, max_terms=max_terms, subtrees=True),
            budget.max_steps, budget.hard_cap, visit)
    decoded = sorted(
        (tuple(c.term_names[-x - 1] for x in w) for w in words if len(w) <= max_len),
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
        return c.expand(form, budget, max_terms=len(target), subtrees=True)

    def visit(form):
        if _is_terminal_enc(form):
            return GOAL if form == target else LEAF
        return EXPAND if _can_yield(form, target) else LEAF

    s = bfs(c.start(), successors, budget.max_steps, budget.hard_cap, visit)
    info = {"exhausted": s.swept, "forms": len(s.parents), "stop": s.stop}
    if s.stop == FOUND:
        return Verdict(PROVEN, _derivation(c, successors, s.parents, s.goal,
                                           _subtree_depths(budget)), info)
    return Verdict(REFUTED if (s.swept and caps_exact) else UNKNOWN, None, info)


def min_index(
    g: IndexedGrammar, w: Word, budget: Budget, caps_exact: bool = False
) -> Optional[tuple[int, Derivation]]:
    """Smallest k such that some derivation of w within the budget has index k,
    with the witness. None when the budget was exhausted without a proof, or
    when the hard cap cut short the search for some smaller k; NotAMember when
    the (caps_exact) search refutes membership."""
    full = membership(g, w, budget, caps_exact)
    if full.is_refuted:
        raise NotAMember(f"{''.join(w)!r} is not generated", exhausted=True)
    if full.is_unknown:
        return None
    best_k = full.witness.index()
    for k in range(1, best_k):
        v = membership(g, w, replace(budget, max_width=k))
        if v.is_proven:
            return (k, v.witness)
        if v.info["stop"] == HARD_CAP:
            return None
    return (best_k, full.witness)


def special_count_min(
    g: IndexedGrammar, w: Word, budget: Budget
) -> Optional[tuple[int, Derivation]]:
    """Minimum number of special-production applications over all derivations
    of w found within the budget. None when the hard cap cut the search short."""
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
                for pos, pid, f2 in c.expand(form, budget, max_terms=len(target),
                                             subtrees=True)]

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
    if s.stop == HARD_CAP:
        return None
    if best is None:
        raise NotAMember(f"{''.join(w)!r} not derived within budget", exhausted=s.swept)
    return best, _derivation(c, step, s.parents, best_state, _subtree_depths(budget),
                             key=lambda st: st[0])


# ---------------------------------------------------------------------------
# uncontrolled-width checking


def check_uncontrolled(g: IndexedGrammar, k: int, budget: Budget) -> Verdict:
    """Refuted with a witness when a successful derivation contains a form
    wider than k; Proven when the whole budgeted space was swept without one.

    The search runs on the terminal-erased quotient of the form space (the
    variable/stack skeleton): widths and completability only depend on the
    skeleton, which keeps the space finite for many grammars whose concrete
    form space is not.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    c = CompiledGrammar(g)
    # Any form on a successful derivation that exceeds k is preceded by a
    # first offender of width <= k + (largest rhs width jump), so exploring
    # candidates up to that cap loses no refutation. The caller's own
    # max_width is ignored: it would mask exactly the forms we look for.
    max_jump = max((row[5] - 1 for row in c.prods if row[0] != 1), default=0)
    base_budget = replace(budget, max_width=None)
    phase1_budget = replace(budget, max_width=k + max(0, max_jump))

    def phase1(form):
        return c.expand(form, phase1_budget, skeleton=True)

    def phase2(form):
        return c.expand(form, base_budget, skeleton=True)

    def finished(form):
        return EXPAND if form else GOAL

    finish: Optional[Search] = None  # the phase-2 search that finished a wide form
    cut: Optional[str] = None  # why a phase-2 search stopped short, if one did
    dead: set = set()  # skeletons whose budgeted closure provably never finishes

    def visit(form):
        nonlocal finish, cut
        if len(form) > k and form not in dead:
            s2 = bfs(form, phase2, budget.max_steps, budget.hard_cap, finished)
            if s2.stop == FOUND:
                finish = s2
                return GOAL
            if s2.swept:
                # the whole budgeted closure was swept without finishing, so
                # everything in it is equally hopeless
                dead.update(s2.parents)
            else:
                cut = s2.stop
        return EXPAND if form else LEAF

    s = bfs(c.start(), phase1, budget.max_steps, budget.hard_cap, visit)
    info = {"exhausted": s.swept and cut is None, "caps": budget.active_caps(),
            "stop": cut if s.swept and cut else s.stop}
    if s.stop == FOUND:
        steps = moves(phase1, s.parents, s.goal) + moves(phase2, finish.parents, ())
        witness = _lift_skeleton(g, [(pid, pos) for pos, pid, _ in steps])
        return Verdict(REFUTED, witness, {**info, "width": witness.index()})
    return Verdict(PROVEN if info["exhausted"] else UNKNOWN, None, info)


def _lift_skeleton(g: IndexedGrammar, skeleton_moves: list[tuple[int, int]]) -> Derivation:
    """Replay skeleton moves (production id, variable-occurrence ordinal) on
    concrete forms, reinstating emitted terminals."""
    form = start_form(g)
    forms = [form]
    steps = []
    for pid, vpos in skeleton_moves:
        item_pos = form.var_positions()[vpos]
        form = apply_production(g, form, item_pos, g.productions[pid])
        forms.append(form)
        steps.append((pid, item_pos))
    return Derivation(tuple(forms), tuple(steps))
