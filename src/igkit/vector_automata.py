"""Automata over fixed-width bit-vector symbols, deciding sets of ℕ^m tuples.

A vector v is encoded least-significant-bit first: symbol t carries bit t of
every component, so the symbol alphabet is {0..2^m - 1} and the encoding of v
has max(bitlength) symbols, extendable by all-zero symbols. Every constructor
here returns an automaton whose language is stable under that zero padding in
both directions (acceptance of any encoding of v implies acceptance of the
minimal one), which is what makes word-level complementation agree with
vector-level complementation; projection breaks the property and is therefore
followed by saturate().

is_empty(a, b) searches a ∩ complement(b) without building either, and
semilinear.linearset_automaton builds a linear set's automaton without
coefficient tracks. The tests check both against the algebra here
(equation_automaton, product, project_tracks, complement): the same
witnesses, and the same automata state for state.
"""

from __future__ import annotations

import math

from . import field, record
from .search import EXPAND, FOUND, GOAL, bfs, explore, moves, reach


class TrackMismatch(Exception):
    pass


@record(eq=False)
class TupleAutomaton:
    """States are 0..num_states-1; transitions[(state, symbol)] is the tuple
    of successor states. Whether there is at most one is not recorded:
    `determinize` builds an automaton where there is."""

    tracks: int
    num_states: int
    initial: int
    accepting: frozenset[int]
    transitions: dict = field(repr=False)

    def targets(self, state: int, sym: int) -> tuple[int, ...]:
        return self.transitions.get((state, sym), ())


def encode(v, length=None) -> list[int]:
    """LSB-first symbol sequence for the vector v (of natural numbers)."""
    if any(x < 0 for x in v):
        raise ValueError(f"vector {tuple(v)} has a negative component")
    n = max((x.bit_length() for x in v), default=0) if length is None else length
    return [sum(((x >> t) & 1) << i for i, x in enumerate(v)) for t in range(n)]


def decode(word, tracks: int) -> tuple[int, ...]:
    return tuple(
        sum(((sym >> i) & 1) << t for t, sym in enumerate(word)) for i in range(tracks)
    )


def renumber(tracks, keys, accepting_keys, edges):
    """The automaton whose state i is `keys[i]` (the initial state first);
    `edges` are (src, symbol, dst) triples of keys. The targets of each
    (state, symbol) are sorted, each once."""
    number = {k: i for i, k in enumerate(keys)}
    targets: dict = {}
    for src, sym, dst in edges:
        targets.setdefault((number[src], sym), set()).add(number[dst])
    return TupleAutomaton(
        tracks=tracks,
        num_states=len(keys),
        initial=0,
        accepting=frozenset(number[k] for k in accepting_keys),
        transitions={k: tuple(sorted(v)) for k, v in targets.items()},
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

    def successors(s):
        return [(sym, (s - dot) // 2) for sym, dot in enumerate(dots) if (s - dot) % 2 == 0]

    keys, edges = explore([constant], successors)
    return renumber(m, keys, [0] if 0 in keys else [], edges)


def never(tracks: int) -> TupleAutomaton:
    return TupleAutomaton(tracks, 1, 0, frozenset(), {})


# ---------------------------------------------------------------------------
# algebra


def product(a: TupleAutomaton, b: TupleAutomaton) -> TupleAutomaton:
    """Intersection: synchronous product on equal track counts."""
    if a.tracks != b.tracks:
        raise TrackMismatch(f"{a.tracks} vs {b.tracks} tracks")

    def successors(pair):
        pa, pb = pair
        return [(sym, (x, y)) for sym in range(1 << a.tracks)
                for x in a.targets(pa, sym) for y in b.targets(pb, sym)]

    keys, edges = explore([(a.initial, b.initial)], successors)
    acc = [s for s in keys if s[0] in a.accepting and s[1] in b.accepting]
    return renumber(a.tracks, keys, acc, edges)


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
    )
    return saturate(out)


def saturate(a: TupleAutomaton) -> TupleAutomaton:
    """Also accept in every state from which an all-zero-symbol path reaches
    an accepting state (restores minimal-encoding acceptance)."""
    zero_preds: dict = {}
    for (s, sym), dsts in a.transitions.items():
        if sym == 0:
            for d in dsts:
                zero_preds.setdefault(d, []).append(s)
    acc = reach(a.accepting, lambda d: [(s,) for s in zero_preds.get(d, ())])
    return TupleAutomaton(
        tracks=a.tracks,
        num_states=a.num_states,
        initial=a.initial,
        accepting=frozenset(acc),
        transitions=a.transitions,
    )


def determinize(a: TupleAutomaton) -> TupleAutomaton:
    """Total deterministic automaton (empty subset = sink)."""

    def successors(cur):
        return [(sym, frozenset(d for s in cur for d in a.targets(s, sym)))
                for sym in range(1 << a.tracks)]

    keys, edges = explore([frozenset({a.initial})], successors)
    return renumber(a.tracks, keys, [s for s in keys if s & a.accepting], edges)


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
    )


def is_empty(a: TupleAutomaton, b: TupleAutomaton | None = None):
    """None when no vector is accepted by a and not by b (by a alone when b
    is missing); otherwise a witness vector decoded from a shortest such
    word. The search runs over pairs of a state of a and the set of states b
    can be in after the same word, from (initial, {initial}) in symbol order:
    the product of a with complement(b) (b saturated), built only as far as
    the search goes, with the same witness."""
    if b is not None and a.tracks != b.tracks:
        raise TrackMismatch(f"{a.tracks} vs {b.tracks} tracks")
    syms = range(1 << a.tracks)
    a_next = a.transitions.get
    b_next = ({} if b is None else b.transitions).get
    rejects = frozenset() if b is None else b.accepting
    start = (a.initial, frozenset() if b is None else frozenset([b.initial]))
    after: dict = {}  # (set of b's states, symbol) -> the set after reading it

    def successors(pair):
        state, cur = pair
        out = []
        for sym in syms:
            ds = a_next((state, sym))
            if ds:
                nxt = after.get((cur, sym))
                if nxt is None:
                    nxt = after[cur, sym] = frozenset(
                        d for q in cur for d in b_next((q, sym), ()))
                out.extend((sym, (d, nxt)) for d in ds)
        return out

    def visit(pair):
        return GOAL if pair[0] in a.accepting and rejects.isdisjoint(pair[1]) else EXPAND

    s = bfs(start, successors, math.inf, math.inf, visit)
    if s.stop != FOUND:
        return None
    return decode([sym for sym, _ in moves(s.parents, s.goal)], a.tracks)


def member(a: TupleAutomaton, v) -> bool:
    """Does the automaton accept (some encoding of) the vector v?"""
    cur = {a.initial}
    for sym in encode(v):
        cur = {d for s in cur for d in a.targets(s, sym)}
        if not cur:
            return False
    return not a.accepting.isdisjoint(reach(cur, lambda s: [(d,) for d in a.targets(s, 0)]))

