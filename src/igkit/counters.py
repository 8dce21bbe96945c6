"""Reversal-bounded multicounter machines.

A machine is an NFA over an input alphabet augmented with counters; each
transition carries a sign test (zero/positive) and a delta in {-1,0,+1} per
counter, and may read a letter or move silently. A word is accepted when the
machine reaches its halting state with the input consumed and every counter
zero. Each counter may switch between increasing and decreasing at most its
declared number of times.

The pipeline here: collapse any machine to one whose counters are 1-reversal
(phase-pair splitting), then expand to a plain NFA over the input alphabet
extended with per-counter increment/decrement letters; a word is accepted by
the machine iff some expansion word with balanced increment/decrement counts
projects onto it, which reduces counting behavior to a regular language plus
a letter-count constraint. parikh_of_intersection reads the letter counts of
a grammar's intersection with it off engine.tree_table, the table over
(variable, stack) pairs that width-capped enumeration reads words off.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from . import field, record
from .automata import Nfa, determinize
from .closure import intersect_dfa, inverse_projection, normalize_rhs
# unused here, but the benchmark's tracer (perfbench/tracing.py) wraps
# `enumerate_language` among this module's names: keep it while the tracer does
from .engine import Budget, CompiledGrammar, enumerate_language, tree_table  # noqa: F401
from .grammar import (
    GrammarError,
    IndexedGrammar,
    ParseError,
    declared,
    distinct_names,
    raise_located,
    read_count,
    read_file,
    split_arrow,
    split_names,
    verbatim,
)
from .search import EXPAND, GOAL, PROVEN, SWEPT, Verdict, bfs, decide, explore, moves

ZERO = "z"
POS = "p"
COUNTER_CAP = "counter_cap"  # why ncm_run stopped: it swept, but a counter value was capped


class NotOneReversal(GrammarError):
    pass


@record
class CmTransition:
    src: str
    letter: Optional[str]  # None is a silent move
    tests: tuple[str, ...]  # ZERO or POS per counter
    dst: str
    deltas: tuple[int, ...]  # -1, 0, +1 per counter


@record
class CounterMachine:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    num_counters: int
    reversal_bounds: tuple[int, ...]
    transitions: tuple[CmTransition, ...]
    initial: str
    halt: str
    name: str = field(default="ncm", compare=False)


def validate_ncm(m: CounterMachine) -> list[tuple[Optional[int], str]]:
    """Every structural violation, each with the number of its transition,
    or None when it is a problem of the whole machine."""
    problems = []
    known = set(m.states)
    if m.initial not in known:
        problems.append(f"initial state {m.initial!r} unknown")
    if m.halt not in known:
        problems.append(f"halting state {m.halt!r} unknown")
    if len(m.reversal_bounds) != m.num_counters:
        problems.append("one reversal bound per counter is required")
    located: list[tuple[Optional[int], str]] = [(None, msg) for msg in problems]
    for i, t in enumerate(m.transitions):
        where = f"transition {i}"
        if t.src not in known or t.dst not in known:
            located.append((i, f"{where}: unknown state"))
        if t.letter is not None and t.letter not in set(m.alphabet):
            located.append((i, f"{where}: letter {t.letter!r} not in the alphabet"))
        if len(t.tests) != m.num_counters or len(t.deltas) != m.num_counters:
            located.append((i, f"{where}: tests/deltas arity mismatch"))
        if any(ts not in (ZERO, POS) for ts in t.tests):
            located.append((i, f"{where}: tests must be z or p"))
        if any(d not in (-1, 0, 1) for d in t.deltas):
            located.append((i, f"{where}: deltas must be -1, 0 or +1"))
        if any(ts == ZERO and d == -1 for ts, d in zip(t.tests, t.deltas)):
            located.append((i, f"{where}: decrements a counter tested zero"))
    return located


# ---------------------------------------------------------------------------
# simulation


def ncm_run(m: CounterMachine, w, max_steps: int = 4000, counter_cap: Optional[int] = None) -> Verdict:
    """Breadth-first search over configurations: proven (accepted) with the
    run trace, one (transition, state, position, counters) per step.
    Counter values are capped at 2|w|+4 by default (a budget, not machine
    semantics): refuted (rejected) only when the capped space was swept
    without the cap ever biting; when it bit, `info["stop"]` is COUNTER_CAP.
    `info["configs"]` counts the configurations stored."""
    w = tuple(w)
    for ltr in w:
        if ltr not in set(m.alphabet):
            raise GrammarError(f"letter {ltr!r} not in the machine alphabet")
    cap = counter_cap if counter_cap is not None else 2 * len(w) + 4
    up = tuple([0] * m.num_counters)
    start = (m.initial, 0, up, up, up)  # state, pos, counters, phases, reversals
    capped = False

    def successors(cfg):
        nonlocal capped
        state, pos, counters, dirs, revs = cfg
        for ti, t in enumerate(m.transitions):
            if t.src != state:
                continue
            if t.letter is not None:
                if pos >= len(w) or w[pos] != t.letter:
                    continue
            if any((ts == ZERO) != (c == 0) for ts, c in zip(t.tests, counters)):
                continue
            new_c, new_d, new_r = [], list(dirs), list(revs)
            for i, (c, d) in enumerate(zip(counters, t.deltas)):
                v = c + d
                if d == 1 and dirs[i] == 1:
                    new_r[i] += 1
                    new_d[i] = 0
                elif d == -1 and dirs[i] == 0:
                    new_r[i] += 1
                    new_d[i] = 1
                if v < 0 or new_r[i] > m.reversal_bounds[i]:
                    break
                if v > cap:
                    capped = True
                    break
                new_c.append(v)
            else:
                step = 0 if t.letter is None else 1
                yield ti, (t.dst, pos + step, tuple(new_c), tuple(new_d), tuple(new_r))

    def visit(cfg):
        state, pos, counters, _, _ = cfg
        return GOAL if state == m.halt and pos == len(w) and not any(counters) else EXPAND

    s = bfs(start, successors, max_steps, math.inf, visit)
    return decide(s, not capped, lambda goal: tuple(
        (ti, cfg[0], cfg[1], cfg[2]) for ti, cfg in moves(s.parents, goal)),
        stop=COUNTER_CAP if s.stop == SWEPT and capped else s.stop, configs=len(s.parents))


# ---------------------------------------------------------------------------
# reversal collapsing


def _pair_count(bound: int) -> int:
    return (bound + 1 + 1) // 2


def to_one_reversal(m: CounterMachine) -> CounterMachine:
    """Replace every r-reversal counter by ceil((r+1)/2) 1-reversal counters,
    one per increase/decrease phase pair; the simulated value is the sum of
    the pieces, increments go to the current pair and decrements drain the
    lowest non-empty pair. The monotone phase index lives in the state."""
    if all(b <= 1 for b in m.reversal_bounds):
        return m
    pairs = [_pair_count(b) for b in m.reversal_bounds]
    offsets = [0]
    for n in pairs:
        offsets.append(offsets[-1] + n)
    total = offsets[-1]

    def state_name(q: str, phases) -> str:
        return f"{q}#ph{'_'.join(map(str, phases))}"

    def counter_options(c: int, test: str, delta: int, phase: int):
        """(sub-tests for this counter's pieces, sub-delta index or None,
        next phase) alternatives; empty when impossible."""
        n = pairs[c]
        cur_pair = (phase + 1) // 2
        if test == ZERO:
            patterns = [(ZERO,) * n] if delta != -1 else []
        else:  # positive: the sign patterns over the pairs in use
            patterns = [p + (ZERO,) * (n - cur_pair)
                        for p in itertools.product((ZERO, POS), repeat=cur_pair) if POS in p]
        out = []
        for subtests in patterns:
            if delta == 0:
                out.append((subtests, None, phase))
            elif delta == 1:
                p2 = phase if phase % 2 == 1 else phase + 1
                if p2 <= m.reversal_bounds[c] + 1:
                    out.append((subtests, ("+", (p2 + 1) // 2 - 1), p2))
            else:
                p2 = phase if phase % 2 == 0 else phase + 1
                if p2 <= m.reversal_bounds[c] + 1:
                    out.append((subtests, ("-", subtests.index(POS)), p2))
        return out

    def successors(node):
        q, phases = node
        for t in m.transitions:
            if t.src != q:
                continue
            per_counter = [
                counter_options(c, t.tests[c], t.deltas[c], phases[c])
                for c in range(m.num_counters)
            ]
            for combo in itertools.product(*per_counter):
                subtests: list[str] = []
                deltas = [0] * total
                new_phases = []
                for c, (tests_c, move, p2) in enumerate(combo):
                    subtests.extend(tests_c)
                    new_phases.append(p2)
                    if move is not None:
                        sign, piece = move
                        deltas[offsets[c] + piece] = 1 if sign == "+" else -1
                yield t.letter, tuple(subtests), tuple(deltas), (t.dst, tuple(new_phases))

    start = (m.initial, tuple([1] * m.num_counters))
    nodes, edges = explore([start], successors)
    halt_name = f"{m.halt}#halt"
    transitions = [CmTransition(state_name(*src), letter, tests, state_name(*dst), deltas)
                   for src, letter, tests, deltas, dst in edges]
    transitions += [CmTransition(state_name(*n), None, (ZERO,) * total, halt_name, (0,) * total)
                    for n in nodes if n[0] == m.halt]
    return CounterMachine(
        states=tuple(state_name(*n) for n in nodes) + (halt_name,),
        alphabet=m.alphabet,
        num_counters=total,
        reversal_bounds=(1,) * total,
        transitions=tuple(transitions),
        initial=state_name(*start),
        halt=halt_name,
        name=f"1rev({m.name})",
    )


# ---------------------------------------------------------------------------
# expansion to an NFA


def counter_letters(k: int) -> tuple[str, ...]:
    out = []
    for i in range(1, k + 1):
        out.extend((f"p#{i}", f"q#{i}"))
    return tuple(out)


def expand_to_nfa(m: CounterMachine) -> Nfa:
    """NFA over the input alphabet plus p#i/q#i letters: counter activity
    becomes visible letters, sign tests become per-counter modes (untouched,
    filling, draining, guessed-empty), and hitting zero is guessed at a
    decrement. A word x is accepted by the machine iff the NFA accepts some
    w with x as its input-letter projection and equally many p#i and q#i for
    every counter."""
    if any(b > 1 for b in m.reversal_bounds):
        raise NotOneReversal("collapse the machine with to_one_reversal first")
    k = m.num_counters
    Z, I, D, G = "z", "i", "d", "g"

    def sname(q, modes):
        return f"<{q}|{''.join(modes)}>"

    def successors(node):
        q, modes = node
        for t in m.transitions:
            if t.src != q:
                continue
            per_counter = []
            for c in range(k):
                mo = modes[c]
                if (t.tests[c] == ZERO) != (mo in (Z, G)):
                    break
                d = t.deltas[c]
                if d == 0:
                    per_counter.append(((None, mo),))
                elif d == 1:
                    if mo not in (Z, I):
                        break
                    per_counter.append(((f"p#{c + 1}", I),))
                else:
                    if mo not in (I, D):
                        break
                    per_counter.append(((f"q#{c + 1}", D), (f"q#{c + 1}", G)))
            else:
                for combo in itertools.product(*per_counter):
                    letters = [] if t.letter is None else [t.letter]
                    letters += [ltr for ltr, _ in combo if ltr is not None]
                    yield tuple(letters), (t.dst, tuple(mo2 for _, mo2 in combo))

    start = (m.initial, tuple([Z] * k))
    nodes, edges = explore([start], successors)
    chain: list[str] = []  # the states inside a transition that reads several letters
    transitions: list[tuple[str, Optional[str], str]] = []
    for src, letters, dst in edges:
        prev = sname(*src)
        for ltr in letters[:-1]:
            chain.append(f"<em|{len(chain)}>")
            transitions.append((prev, ltr, chain[-1]))
            prev = chain[-1]
        transitions.append((prev, letters[-1] if letters else None, sname(*dst)))
    return Nfa(
        states=tuple(sname(*n) for n in nodes) + tuple(chain),
        alphabet=m.alphabet + counter_letters(k),
        initial=sname(*start),
        accepting=frozenset(sname(q, modes) for q, modes in nodes
                            if q == m.halt and all(mo in (Z, G) for mo in modes)),
        transitions=tuple(transitions),
        name=f"nfa({m.name})",
    )


# ---------------------------------------------------------------------------
# the counting pipeline


def parikh_of_intersection(
    g: IndexedGrammar,
    m: CounterMachine,
    radius: int,
    enum_len: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> Verdict:
    """Counting vectors of L(g) ∩ L(m) up to the radius, computed through the
    regular route: extend the grammar alphabet with counter letters, intersect
    with the expanded NFA, tabulate the letter counts of the intersection
    grammar's words up to enum_len (`_parikh_table`: the tree table's
    (counts, width) entries, grown by `tabulate` at depth caps, so max_steps
    bounds the stack depth, not the derivation length), keep the balanced
    ones, project away the counter letters. Proven, with the letter-count
    vectors (over g's terminal order) of the words of length <= radius in
    both languages, sorted; `info` holds `stop` (why the last table stopped:
    swept, max_steps when a push was left out, or hard_cap, which counts the
    pairs and entries) and `enum_len` (the length cap of the intersection
    grammar's words, counter letters included)."""
    if radius < 0 or (enum_len is not None and enum_len < 0):
        raise ValueError("radius and enum_len must be >= 0")
    if set(g.terminals) != set(m.alphabet):
        raise GrammarError("grammar terminals and machine alphabet must agree")
    m1 = to_one_reversal(m)
    k = m1.num_counters
    ext = g.terminals + counter_letters(k)
    d = determinize(expand_to_nfa(m1), alphabet=ext)
    g2 = intersect_dfa(normalize_rhs(inverse_projection(g, ext)), d)
    length = enum_len if enum_len is not None else radius * (1 + 2 * k)
    budget = budget or Budget(max_steps=600)
    c = CompiledGrammar(g2)
    counts, stop = _parikh_table(c, length, budget)
    n = len(g.terminals)  # g2's terminals are ext, in order
    vectors = {v[:n] for v in counts if sum(v[:n]) <= radius and v[n::2] == v[n + 1::2]}
    return Verdict(PROVEN, tuple(sorted(vectors)), {"stop": stop, "enum_len": length})


def _parikh_table(c: CompiledGrammar, length: int, budget: Budget):
    """The letter counts of the start variable's words of length <=
    `length`: the `tree_table` of vectors, whose entries are (counts, width)
    with a least size. A vector is one int, count i in field i of `bits`
    bits and the total above: a rule's runs are its terminals' counts and
    zeros, adding vectors adds ints, and an int is below `over` exactly when
    its total is at most `length` (its counts then fit their fields)."""
    bits, n = length.bit_length(), len(c.term_names)
    unit = [(1 << bits * i) + (1 << bits * n) for i in range(n)]
    over = (length + 1) << bits * n
    runs = [[sum(unit[-x - 1] for x in row[2] if x < 0)] + [0] * row[5] for row in c.prods]
    entries, stop, _ = tree_table(c, budget, runs, over.__gt__)
    mask = (1 << bits) - 1
    return [tuple(v >> bits * i & mask for i in range(n)) for v in {v for v, _ in entries}], stop


# ---------------------------------------------------------------------------
# text format


def parse_ncm(text: str) -> CounterMachine:
    fields = {"states": distinct_names, "alphabet": declared, "counters": read_count,
              "reversals": _parse_bounds, "initial": verbatim, "halt": verbatim}
    name, values, rows = read_file(text, "ncm", fields, {"trans": _parse_cm_transition},
                                   required=fields)
    m = CounterMachine(
        states=values["states"],
        alphabet=values["alphabet"],
        num_counters=values["counters"],
        reversal_bounds=values["reversals"],
        transitions=tuple(t for _, _, t in rows),
        initial=values["initial"],
        halt=values["halt"],
        name=name,
    )
    raise_located(validate_ncm(m), [line_no for line_no, _, _ in rows])
    return m


def _parse_bounds(text: str, line_no: int, what: str) -> tuple[int, ...]:
    """The `reversals:` list: one count per counter."""
    return tuple(read_count(t, line_no, what) for t in split_names(text, line_no, what))


def _parse_cm_transition(text: str, line_no: int, what: str) -> CmTransition:
    lhs, rhs = split_arrow(text, line_no, "transition")

    def split_head(part, what):
        part = part.strip()
        open_i = part.find("(")
        close_i = part.rfind(")")
        if open_i < 0 or close_i < 0:
            raise ParseError(f"missing {what}(…)", line_no)
        head = part[:open_i].strip().rstrip(",").strip()
        inner = part[open_i + 1: close_i].strip()
        items = tuple(t.strip() for t in inner.split(",")) if inner else ()
        return head, items

    head_l, tests = split_head(lhs, "tests")
    toks = split_names(head_l, line_no, "transition")
    if len(toks) != 3 or toks[2] != "tests":
        raise ParseError("transition lhs must be `state, letter|_, tests(…)`", line_no)
    src, letter = toks[0], (None if toks[1] == "_" else toks[1])
    head_r, delta_toks = split_head(rhs, "deltas")
    rtoks = split_names(head_r, line_no, "transition")
    if len(rtoks) != 2 or rtoks[1] != "deltas":
        raise ParseError("transition rhs must be `state, deltas(…)`", line_no)
    dst = rtoks[0]
    signs = {"+": 1, "-": -1, "0": 0}
    for tok in delta_toks:
        if tok not in signs:
            raise ParseError(f"bad delta {tok!r}", line_no)
    return CmTransition(src, letter, tests, dst, tuple(signs[tok] for tok in delta_toks))


def serialize_ncm(m: CounterMachine) -> str:
    lines = [
        f"ncm {m.name}",
        "states: " + ", ".join(m.states),
        "alphabet: " + ", ".join(m.alphabet),
        f"counters: {m.num_counters}",
        "reversals: " + ", ".join(map(str, m.reversal_bounds)),
        f"initial: {m.initial}",
        f"halt: {m.halt}",
    ]
    for t in m.transitions:
        ds = ",".join("+" if d == 1 else "-" if d == -1 else "0" for d in t.deltas)
        lines.append(
            f"trans: {t.src}, {t.letter if t.letter is not None else '_'}, "
            f"tests({','.join(t.tests)}) -> {t.dst}, deltas({ds})"
        )
    return "\n".join(lines) + "\n"
