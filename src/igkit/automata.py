"""Finite automata over symbol alphabets: NFA with optional epsilon moves,
total deterministic automata, and subset-construction determinization.

These support the regular-language side of the closure constructions; the
bit-vector tuple automata used by the semilinear decision core live in
igkit.vector_automata.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from .grammar import ParseError, declared, read_sections, require, set_once, split_names


@dataclass(frozen=True)
class Nfa:
    """Transitions are (src, label, dst); label None is an epsilon move."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    transitions: tuple[tuple[str, Optional[str], str], ...]
    name: str = field(default="nfa", compare=False)

    @functools.cached_property
    def _by_src(self) -> dict:
        out: dict = {}
        for src, label, dst in self.transitions:
            out.setdefault((src, label), []).append(dst)
        return out

    def moves(self, state: str, label: Optional[str]) -> list[str]:
        return self._by_src.get((state, label), [])

    def eps_closure(self, states) -> frozenset[str]:
        seen = set(states)
        todo = list(states)
        while todo:
            s = todo.pop()
            for t in self.moves(s, None):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return frozenset(seen)

    def accepts(self, word) -> bool:
        cur = self.eps_closure({self.initial})
        for sym in word:
            cur = self.eps_closure({t for s in cur for t in self.moves(s, sym)})
            if not cur:
                return False
        return bool(cur & self.accepting)


@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton; total over its alphabet after validate() is clean."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    transitions: tuple[tuple[str, str, str], ...]
    name: str = field(default="dfa", compare=False)

    @functools.cached_property
    def _map(self) -> dict:
        out: dict = {}
        for src, sym, dst in self.transitions:
            out[(src, sym)] = dst
        return out

    def validate(self) -> list[str]:
        problems = []
        seen = set()
        if self.initial not in self.states:
            problems.append(f"initial state {self.initial!r} unknown")
        for s in self.accepting:
            if s not in self.states:
                problems.append(f"accepting state {s!r} unknown")
        for src, sym, dst in self.transitions:
            if (src, sym) in seen:
                problems.append(f"nondeterministic on ({src!r}, {sym!r})")
            seen.add((src, sym))
            if src not in self.states or dst not in self.states:
                problems.append(f"transition {src!r}-{sym!r}->{dst!r} uses unknown state")
            if sym not in self.alphabet:
                problems.append(f"transition symbol {sym!r} not in alphabet")
        for s in self.states:
            for sym in self.alphabet:
                if (s, sym) not in seen:
                    problems.append(f"missing transition ({s!r}, {sym!r})")
        return problems

    def run(self, word, state: Optional[str] = None) -> str:
        cur = self.initial if state is None else state
        for sym in word:
            cur = self._map[(cur, sym)]
        return cur

    def accepts(self, word) -> bool:
        return self.run(word) in self.accepting


def universal_dfa(alphabet, name="universal") -> Dfa:
    return Dfa(
        states=("u",),
        alphabet=tuple(alphabet),
        initial="u",
        accepting=frozenset({"u"}),
        transitions=tuple(("u", a, "u") for a in alphabet),
        name=name,
    )


def empty_dfa(alphabet, name="empty") -> Dfa:
    return Dfa(
        states=("u",),
        alphabet=tuple(alphabet),
        initial="u",
        accepting=frozenset(),
        transitions=tuple(("u", a, "u") for a in alphabet),
        name=name,
    )


def _subset_name(states: frozenset[str]) -> str:
    return "{" + "|".join(sorted(states)) + "}"


def determinize(nfa: Nfa, alphabet=None, name: Optional[str] = None) -> Dfa:
    """Total deterministic automaton for L(nfa) via the subset construction;
    the empty subset acts as the sink."""
    letters = tuple(alphabet) if alphabet is not None else nfa.alphabet
    start = nfa.eps_closure({nfa.initial})
    order: list[frozenset[str]] = [start]
    seen = {start}
    transitions = []
    i = 0
    while i < len(order):
        cur = order[i]
        i += 1
        for sym in letters:
            nxt = nfa.eps_closure({t for s in cur for t in nfa.moves(s, sym)})
            transitions.append((_subset_name(cur), sym, _subset_name(nxt)))
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return Dfa(
        states=tuple(_subset_name(s) for s in order),
        alphabet=letters,
        initial=_subset_name(start),
        accepting=frozenset(_subset_name(s) for s in order if s & nfa.accepting),
        transitions=tuple(transitions),
        name=name or f"det({nfa.name})",
    )


# ---------------------------------------------------------------------------
# text format (shared by NFA and DFA fixtures; `_` as the label is an
# epsilon move, multiple `trans:` lines per (state, symbol) make it an NFA)


def parse_fsa(text: str) -> Nfa:
    name, sections = read_sections(text, "fsa")
    fields: dict = {}
    transitions = []
    for line_no, key, value in sections:
        if key in ("states", "accepting"):
            set_once(fields, key, split_names(value, line_no, key), line_no)
        elif key == "alphabet":
            set_once(fields, key, declared(value, line_no, key), line_no)
        elif key == "initial":
            set_once(fields, key, value, line_no)
        elif key == "trans":
            lhs, arrow, dsts = value.partition("->")
            if not arrow:
                raise ParseError("transition needs `->`", line_no)
            toks = lhs.split()
            if len(toks) != 2:
                raise ParseError("transition lhs must be `state symbol`", line_no)
            src, sym = toks
            label = None if sym == "_" else sym
            for dst in split_names(dsts, line_no, "transition target"):
                transitions.append((src, label, dst))
        else:
            raise ParseError(f"unknown section {key!r}", line_no)
    require(fields, ("states", "alphabet", "initial", "accepting"))
    nfa = Nfa(
        states=fields["states"],
        alphabet=fields["alphabet"],
        initial=fields["initial"],
        accepting=frozenset(fields["accepting"]),
        transitions=tuple(transitions),
        name=name,
    )
    known = set(nfa.states)
    for src, label, dst in transitions:
        if src not in known or dst not in known:
            raise ParseError(f"transition uses unknown state {src!r} or {dst!r}", 1)
        if label is not None and label not in set(nfa.alphabet):
            raise ParseError(f"transition symbol {label!r} not in alphabet", 1)
    if nfa.initial not in known:
        raise ParseError(f"initial state {nfa.initial!r} unknown", 1)
    return nfa


def serialize_fsa(nfa: Nfa) -> str:
    lines = [f"fsa {nfa.name}"]
    lines.append("states: " + ", ".join(nfa.states))
    lines.append("alphabet: " + ", ".join(nfa.alphabet))
    lines.append(f"initial: {nfa.initial}")
    lines.append("accepting: " + ", ".join(s for s in nfa.states if s in nfa.accepting))
    for src, label, dst in nfa.transitions:
        lines.append(f"trans: {src} {label if label is not None else '_'} -> {dst}")
    return "\n".join(lines) + "\n"
