"""Automata over fixed-width bit-vector symbols, deciding sets of ℕ^m tuples.

A vector v is encoded least-significant-bit first: symbol t carries bit t of
every component, so the symbol alphabet is {0..2^m - 1} and the encoding of v
has max(bitlength) symbols, extendable by all-zero symbols. Every constructor
here returns an automaton whose language is stable under that zero padding in
both directions (acceptance of any encoding of v implies acceptance of the
minimal one), which is what makes word-level complementation agree with
vector-level complementation; projection breaks the property and is therefore
followed by saturate().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .search import EXPAND, FOUND, GOAL, bfs, moves


class TrackMismatch(Exception):
    pass


@dataclass(frozen=True, eq=False)
class TupleAutomaton:
    """States are 0..num_states-1; transitions[(state, symbol)] is a tuple of
    successor states (at most one when deterministic)."""

    tracks: int
    num_states: int
    initial: int
    accepting: frozenset[int]
    transitions: dict = field(repr=False)
    deterministic: bool = False

    def targets(self, state: int, sym: int) -> tuple[int, ...]:
        return self.transitions.get((state, sym), ())


def encode(v, length=None) -> list[int]:
    """LSB-first symbol sequence for the vector v."""
    n = max((x.bit_length() for x in v), default=0) if length is None else length
    return [sum(((x >> t) & 1) << i for i, x in enumerate(v)) for t in range(n)]


def decode(word, tracks: int) -> tuple[int, ...]:
    return tuple(
        sum(((sym >> i) & 1) << t for t, sym in enumerate(word)) for i in range(tracks)
    )


def _renumber(tracks, initial_key, accepting_keys, trans, deterministic):
    order = {initial_key: 0}
    keys = [initial_key]
    for (src, _), dsts in trans:
        for k in (src, *dsts):
            if k not in order:
                order[k] = len(keys)
                keys.append(k)
    transitions = {}
    for (src, sym), dsts in trans:
        transitions[(order[src], sym)] = tuple(order[d] for d in dsts)
    return TupleAutomaton(
        tracks=tracks,
        num_states=len(keys),
        initial=0,
        accepting=frozenset(order[k] for k in accepting_keys if k in order),
        transitions=transitions,
        deterministic=deterministic,
    )


# ---------------------------------------------------------------------------
# constructors


def equation_automaton(coefficients, constant: int) -> TupleAutomaton:
    """Deterministic automaton accepting the encodings of x ∈ ℕ^m with
    coefficients · x = constant. States are the residual constants: reading a
    bit-vector β from residual s leads to (s - a·β)/2 when that is an integer,
    so the reachable state set stays within max(|constant|, Σ|a_i|)."""
    coeffs = tuple(coefficients)
    m = len(coeffs)
    dots = [sum(c for i, c in enumerate(coeffs) if (sym >> i) & 1) for sym in range(1 << m)]
    trans = []
    seen = {constant}
    todo = [constant]
    while todo:
        s = todo.pop()
        for sym in range(1 << m):
            d = s - dots[sym]
            if d % 2:
                continue
            nxt = d // 2
            trans.append(((s, sym), (nxt,)))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return _renumber(m, constant, [0] if 0 in seen else [], trans, deterministic=True)


def never(tracks: int) -> TupleAutomaton:
    return TupleAutomaton(tracks, 1, 0, frozenset(), {}, deterministic=True)


# ---------------------------------------------------------------------------
# algebra


def product(a: TupleAutomaton, b: TupleAutomaton) -> TupleAutomaton:
    """Intersection: synchronous product on equal track counts."""
    if a.tracks != b.tracks:
        raise TrackMismatch(f"{a.tracks} vs {b.tracks} tracks")
    start = (a.initial, b.initial)
    seen = {start}
    todo = [start]
    trans = []
    while todo:
        pa, pb = todo.pop()
        for sym in range(1 << a.tracks):
            ta = a.targets(pa, sym)
            tb = b.targets(pb, sym)
            dsts = tuple((x, y) for x in ta for y in tb)
            if not dsts:
                continue
            trans.append((((pa, pb), sym), dsts))
            for d in dsts:
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
    acc = [s for s in seen if s[0] in a.accepting and s[1] in b.accepting]
    return _renumber(a.tracks, start, acc, trans, a.deterministic and b.deterministic)


def union(a: TupleAutomaton, b: TupleAutomaton) -> TupleAutomaton:
    if a.tracks != b.tracks:
        raise TrackMismatch(f"{a.tracks} vs {b.tracks} tracks")
    off = a.num_states + 1
    trans: dict = {}
    for (s, sym), dsts in a.transitions.items():
        trans[(s + 1, sym)] = tuple(d + 1 for d in dsts)
    for (s, sym), dsts in b.transitions.items():
        trans[(s + off, sym)] = tuple(d + off for d in dsts)
    for sym in range(1 << a.tracks):
        merged = tuple(d + 1 for d in a.targets(a.initial, sym)) + tuple(
            d + off for d in b.targets(b.initial, sym)
        )
        if merged:
            trans[(0, sym)] = merged
    acc = {s + 1 for s in a.accepting} | {s + off for s in b.accepting}
    if a.initial in a.accepting or b.initial in b.accepting:
        acc.add(0)
    return TupleAutomaton(
        tracks=a.tracks,
        num_states=a.num_states + b.num_states + 1,
        initial=0,
        accepting=frozenset(acc),
        transitions=trans,
        deterministic=False,
    )


def project_tracks(a: TupleAutomaton, keep) -> TupleAutomaton:
    """Drop all tracks outside `keep` (an ordered list of track indexes);
    the result is saturated so short encodings of surviving vectors are
    accepted even when the dropped components needed more symbols."""
    keep = tuple(keep)
    m2 = len(keep)
    merged: dict = {}
    for (s, sym), dsts in a.transitions.items():
        sym2 = sum(((sym >> trk) & 1) << j for j, trk in enumerate(keep))
        key = (s, sym2)
        merged[key] = merged.get(key, ()) + dsts
    trans = {k: tuple(sorted(set(v))) for k, v in merged.items()}
    out = TupleAutomaton(
        tracks=m2,
        num_states=a.num_states,
        initial=a.initial,
        accepting=a.accepting,
        transitions=trans,
        deterministic=False,
    )
    return saturate(out)


def saturate(a: TupleAutomaton) -> TupleAutomaton:
    """Also accept in every state from which an all-zero-symbol path reaches
    an accepting state (restores minimal-encoding acceptance)."""
    acc = set(a.accepting)
    changed = True
    while changed:
        changed = False
        for (s, sym), dsts in a.transitions.items():
            if sym == 0 and s not in acc and any(d in acc for d in dsts):
                acc.add(s)
                changed = True
    return TupleAutomaton(
        tracks=a.tracks,
        num_states=a.num_states,
        initial=a.initial,
        accepting=frozenset(acc),
        transitions=a.transitions,
        deterministic=a.deterministic,
    )


def determinize(a: TupleAutomaton) -> TupleAutomaton:
    """Total deterministic automaton (empty subset = sink)."""
    start = frozenset({a.initial})
    seen = {start}
    order = [start]
    trans = []
    i = 0
    while i < len(order):
        cur = order[i]
        i += 1
        for sym in range(1 << a.tracks):
            nxt = frozenset(d for s in cur for d in a.targets(s, sym))
            trans.append(((cur, sym), (nxt,)))
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    acc = [s for s in order if s & a.accepting]
    return _renumber(a.tracks, start, acc, trans, deterministic=True)


def complement(a: TupleAutomaton) -> TupleAutomaton:
    """Vector-level complement (argument must be saturated, which every
    public constructor here guarantees)."""
    d = determinize(a)
    return TupleAutomaton(
        tracks=d.tracks,
        num_states=d.num_states,
        initial=d.initial,
        accepting=frozenset(range(d.num_states)) - d.accepting,
        transitions=d.transitions,
        deterministic=True,
    )


def is_empty(a: TupleAutomaton):
    """None when no vector is accepted; otherwise a witness vector decoded
    from a shortest accepted word."""

    def successors(state):
        return [(sym, d) for sym in range(1 << a.tracks) for d in a.targets(state, sym)]

    s = bfs(a.initial, successors, math.inf, math.inf,
            lambda state: GOAL if state in a.accepting else EXPAND)
    if s.stop != FOUND:
        return None
    return decode([sym for sym, _ in moves(successors, s.parents, s.goal)], a.tracks)


def member(a: TupleAutomaton, v) -> bool:
    """Does the automaton accept (some encoding of) the vector v?"""
    cur = {a.initial}
    for sym in encode(v):
        cur = {d for s in cur for d in a.targets(s, sym)}
        if not cur:
            return False
    seen = set(cur)
    todo = list(cur)
    while todo:
        s = todo.pop()
        if s in a.accepting:
            return True
        for d in a.targets(s, 0):
            if d not in seen:
                seen.add(d)
                todo.append(d)
    return False


def grid_members(a: TupleAutomaton, radius: int) -> frozenset:
    """All accepted vectors with every component <= radius (walked on the
    determinized, saturated automaton: one dict lookup per symbol)."""
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
