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
a letter-count constraint.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from .automata import Nfa, determinize
from .closure import intersect_dfa, inverse_projection, normalize_rhs
from .engine import Budget, enumerate_language
from .grammar import (
    GrammarError,
    IndexedGrammar,
    ParseError,
    declared,
    read_int,
    read_sections,
    require,
    set_once,
    split_names,
)
from .search import EXPAND, GOAL, Verdict, bfs, decide, moves
from .semilinear import parikh

ZERO = "z"
POS = "p"


class NotOneReversal(GrammarError):
    pass


@dataclass(frozen=True)
class CmTransition:
    src: str
    letter: Optional[str]  # None is a silent move
    tests: tuple[str, ...]  # ZERO or POS per counter
    dst: str
    deltas: tuple[int, ...]  # -1, 0, +1 per counter


@dataclass(frozen=True)
class CounterMachine:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    num_counters: int
    reversal_bounds: tuple[int, ...]
    transitions: tuple[CmTransition, ...]
    initial: str
    halt: str
    name: str = field(default="ncm", compare=False)


def validate_ncm(m: CounterMachine) -> list[str]:
    problems = []
    known = set(m.states)
    if m.initial not in known:
        problems.append(f"initial state {m.initial!r} unknown")
    if m.halt not in known:
        problems.append(f"halting state {m.halt!r} unknown")
    if len(m.reversal_bounds) != m.num_counters:
        problems.append("one reversal bound per counter is required")
    for i, t in enumerate(m.transitions):
        where = f"transition {i}"
        if t.src not in known or t.dst not in known:
            problems.append(f"{where}: unknown state")
        if t.letter is not None and t.letter not in set(m.alphabet):
            problems.append(f"{where}: letter {t.letter!r} not in the alphabet")
        if len(t.tests) != m.num_counters or len(t.deltas) != m.num_counters:
            problems.append(f"{where}: tests/deltas arity mismatch")
        if any(ts not in (ZERO, POS) for ts in t.tests):
            problems.append(f"{where}: tests must be z or p")
        if any(d not in (-1, 0, 1) for d in t.deltas):
            problems.append(f"{where}: deltas must be -1, 0 or +1")
        if any(ts == ZERO and d == -1 for ts, d in zip(t.tests, t.deltas)):
            problems.append(f"{where}: decrements a counter tested zero")
    return problems


# ---------------------------------------------------------------------------
# simulation


def ncm_run(m: CounterMachine, w, max_steps: int = 4000, counter_cap: Optional[int] = None) -> Verdict:
    """Breadth-first search over configurations: proven (accepted) with the
    run trace, one (transition, state, position, counters) per step.
    Counter values are capped at 2|w|+4 by default (a budget, not machine
    semantics): refuted (rejected) only when the capped space was swept
    without the cap ever biting. `info["configs"]` counts the
    configurations stored."""
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
        (ti, cfg[0], cfg[1], cfg[2]) for ti, cfg in moves(successors, s.parents, goal)),
        configs=len(s.parents))


def audit_run(m: CounterMachine, w, trace) -> list[str]:
    """Replay a trace and report any discipline violation: decrement at zero,
    reversal budget overrun, test mismatch, or a non-accepting endpoint."""
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
        next phase) alternatives; None when impossible."""
        n = pairs[c]
        cur_pair = (phase + 1) // 2
        out = []
        if test == ZERO:
            subtests = (ZERO,) * n
            if delta == 0:
                out.append((subtests, None, phase))
            elif delta == 1:
                p2 = phase if phase % 2 == 1 else phase + 1
                if p2 <= m.reversal_bounds[c] + 1:
                    out.append((subtests, ("+", (p2 + 1) // 2 - 1), p2))
            return out
        # positive: enumerate sign patterns over the pairs in use
        for pattern in itertools.product((ZERO, POS), repeat=cur_pair):
            if POS not in pattern:
                continue
            subtests = pattern + (ZERO,) * (n - cur_pair)
            if delta == 0:
                out.append((subtests, None, phase))
            elif delta == 1:
                p2 = phase if phase % 2 == 1 else phase + 1
                if p2 <= m.reversal_bounds[c] + 1:
                    out.append((subtests, ("+", (p2 + 1) // 2 - 1), p2))
            else:
                low = pattern.index(POS)
                p2 = phase if phase % 2 == 0 else phase + 1
                if p2 <= m.reversal_bounds[c] + 1:
                    out.append((subtests, ("-", low), p2))
        return out

    new_transitions: list[CmTransition] = []
    new_states: list[str] = []
    seen_states = set()
    start_phases = tuple([1] * m.num_counters)
    todo = [(m.initial, start_phases)]
    seen = {(m.initial, start_phases)}
    halt_name = f"{m.halt}#halt"
    while todo:
        q, phases = todo.pop()
        nm = state_name(q, phases)
        if nm not in seen_states:
            seen_states.add(nm)
            new_states.append(nm)
        if q == m.halt:
            new_transitions.append(
                CmTransition(nm, None, (ZERO,) * total, halt_name, (0,) * total)
            )
        for t in m.transitions:
            if t.src != q:
                continue
            per_counter = [
                counter_options(c, t.tests[c], t.deltas[c], phases[c])
                for c in range(m.num_counters)
            ]
            if any(not opts for opts in per_counter):
                continue
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
                key = (t.dst, tuple(new_phases))
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
                new_transitions.append(
                    CmTransition(
                        nm, t.letter, tuple(subtests), state_name(*key), tuple(deltas)
                    )
                )
    new_states.append(halt_name)
    return CounterMachine(
        states=tuple(new_states),
        alphabet=m.alphabet,
        num_counters=total,
        reversal_bounds=(1,) * total,
        transitions=tuple(new_transitions),
        initial=state_name(m.initial, start_phases),
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

    states: list[str] = []
    transitions: list[tuple[str, Optional[str], str]] = []
    accepting: set[str] = set()
    start_modes = tuple([Z] * k)
    seen = {(m.initial, start_modes)}
    todo = [(m.initial, start_modes)]
    chain_n = itertools.count()
    while todo:
        q, modes = todo.pop()
        nm = sname(q, modes)
        states.append(nm)
        if q == m.halt and all(mo in (Z, G) for mo in modes):
            accepting.add(nm)
        for t in m.transitions:
            if t.src != q:
                continue
            per_counter = []
            ok = True
            for c in range(k):
                mo = modes[c]
                if (t.tests[c] == ZERO) != (mo in (Z, G)):
                    ok = False
                    break
                d = t.deltas[c]
                if d == 0:
                    per_counter.append(((None, mo),))
                elif d == 1:
                    if mo not in (Z, I):
                        ok = False
                        break
                    per_counter.append(((f"p#{c + 1}", I),))
                else:
                    if mo not in (I, D):
                        ok = False
                        break
                    per_counter.append(((f"q#{c + 1}", D), (f"q#{c + 1}", G)))
            if not ok:
                continue
            for combo in itertools.product(*per_counter):
                letters = [] if t.letter is None else [t.letter]
                new_modes = []
                for c, (ltr, mo2) in enumerate(combo):
                    if ltr is not None:
                        letters.append(ltr)
                    new_modes.append(mo2)
                key = (t.dst, tuple(new_modes))
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
                target = sname(*key)
                if not letters:
                    transitions.append((nm, None, target))
                    continue
                prev = nm
                for j, ltr in enumerate(letters):
                    if j == len(letters) - 1:
                        transitions.append((prev, ltr, target))
                    else:
                        mid = f"<em|{next(chain_n)}>"
                        states.append(mid)
                        transitions.append((prev, ltr, mid))
                        prev = mid
    return Nfa(
        states=tuple(dict.fromkeys(states)),
        alphabet=m.alphabet + counter_letters(k),
        initial=sname(m.initial, start_modes),
        accepting=frozenset(accepting),
        transitions=tuple(transitions),
        name=f"nfa({m.name})",
    )


def accepts_via_expansion(
    nfa: Nfa, input_alphabet, k: int, x, cap: Optional[int] = None
) -> Verdict:
    """Search for an NFA word with balanced p#i/q#i counts that projects to x,
    over (state, input position, count differences): proven with the run
    trace, one (label, state, position, differences) per step. Each
    difference is capped at |x|+4 by default (a budget): refuted only when
    the capped space was swept without the cap ever biting."""
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
        (label, *cfg) for label, cfg in moves(successors, s.parents, goal)),
        configs=len(s.parents))


# ---------------------------------------------------------------------------
# the counting pipeline


@dataclass(frozen=True)
class ParikhSample:
    """Letter-count vectors (over the grammar's terminal order) of the words
    of length <= radius lying in both languages."""

    vectors: tuple[tuple[int, ...], ...]
    radius: int
    enum_len: int
    exhausted: bool


def parikh_of_intersection(
    g: IndexedGrammar,
    m: CounterMachine,
    radius: int,
    enum_len: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> ParikhSample:
    """Counting vectors of L(g) ∩ L(m) up to the radius, computed through the
    regular route: extend the grammar alphabet with counter letters, intersect
    with the expanded NFA, enumerate, keep balanced words, project away the
    counter letters."""
    if set(g.terminals) != set(m.alphabet):
        raise GrammarError("grammar terminals and machine alphabet must agree")
    m1 = to_one_reversal(m)
    nfa = expand_to_nfa(m1)
    k = m1.num_counters
    blet = counter_letters(k)
    ext = g.terminals + blet
    g1 = inverse_projection(g, ext)
    d = determinize(nfa, alphabet=ext)
    g2 = intersect_dfa(normalize_rhs(g1), d)
    length = enum_len if enum_len is not None else radius * (1 + 2 * k)
    budget = budget or Budget(max_steps=600)
    res = enumerate_language(g2, length, budget)
    vectors = set()
    inputs = set(g.terminals)
    for w in res.words:
        counts = {ltr: 0 for ltr in blet}
        xs = []
        for ltr in w:
            if ltr in inputs:
                xs.append(ltr)
            else:
                counts[ltr] += 1
        if any(counts[f"p#{i + 1}"] != counts[f"q#{i + 1}"] for i in range(k)):
            continue
        if len(xs) > radius:
            continue
        vectors.add(parikh(xs, g.terminals))
    return ParikhSample(
        vectors=tuple(sorted(vectors)),
        radius=radius,
        enum_len=length,
        exhausted=res.exhausted,
    )


# ---------------------------------------------------------------------------
# text format


def parse_ncm(text: str) -> CounterMachine:
    name, sections = read_sections(text, "ncm")
    fields: dict = {}
    transitions: list[CmTransition] = []
    for line_no, key, value in sections:
        if key == "states":
            set_once(fields, key, split_names(value, line_no, key), line_no)
        elif key == "alphabet":
            set_once(fields, key, declared(value, line_no, key), line_no)
        elif key == "counters":
            set_once(fields, key, read_int(value, line_no, key), line_no)
        elif key == "reversals":
            bounds = tuple(read_int(t, line_no, key) for t in split_names(value, line_no, key))
            set_once(fields, key, bounds, line_no)
        elif key in ("initial", "halt"):
            set_once(fields, key, value, line_no)
        elif key == "trans":
            transitions.append(_parse_cm_transition(value, line_no))
        else:
            raise ParseError(f"unknown section {key!r}", line_no)
    require(fields, ("states", "alphabet", "counters", "reversals", "initial", "halt"))
    m = CounterMachine(
        states=fields["states"],
        alphabet=fields["alphabet"],
        num_counters=fields["counters"],
        reversal_bounds=fields["reversals"],
        transitions=tuple(transitions),
        initial=fields["initial"],
        halt=fields["halt"],
        name=name,
    )
    problems = validate_ncm(m)
    if problems:
        raise ParseError("; ".join(problems), 1)
    return m


def _parse_cm_transition(text: str, line_no: int) -> CmTransition:
    lhs, arrow, rhs = text.partition("->")
    if not arrow:
        raise ParseError("transition needs `->`", line_no)

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
    deltas = []
    for tok in delta_toks:
        if tok == "+":
            deltas.append(1)
        elif tok == "-":
            deltas.append(-1)
        elif tok == "0":
            deltas.append(0)
        else:
            raise ParseError(f"bad delta {tok!r}", line_no)
    return CmTransition(src, letter, tests, dst, tuple(deltas))


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
