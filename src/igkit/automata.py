"""Finite automata over symbol alphabets: one record, Nfa, with optional
epsilon moves, and the subset construction that makes an Nfa total and
deterministic (no epsilon move, one target for each state and letter).

These support the regular-language side of the closure constructions; the
bit-vector tuple automata used by the semilinear decision core live in
igkit.vector_automata.
"""

from __future__ import annotations

import functools
from typing import Optional

from . import field, record
from .grammar import (
    ParseError,
    declared,
    distinct_names,
    fresh_name,
    read_file,
    split_arrow,
    split_names,
    verbatim,
)
from .search import explore, reach


@record
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
        return frozenset(reach(states, lambda s: [(t,) for t in self.moves(s, None)]))


def determinize(nfa: Nfa, alphabet=None) -> Nfa:
    """Total deterministic automaton for L(nfa) via the subset construction;
    the empty subset acts as the sink. A subset is named by its states,
    `{a|b}`; a name that an earlier subset took (a state may be called `a|b`)
    gets a fresh `#n` suffix."""
    letters = tuple(alphabet) if alphabet is not None else nfa.alphabet
    start = nfa.eps_closure({nfa.initial})

    def successors(cur):
        return [(sym, nfa.eps_closure({t for s in cur for t in nfa.moves(s, sym)}))
                for sym in letters]

    order, edges = explore([start], successors)
    names: dict = {}
    taken: set = set()
    for s in order:
        name = "{" + "|".join(sorted(s)) + "}"
        if name in taken:
            name = fresh_name(name, taken)
        names[s] = name
        taken.add(name)
    return Nfa(
        states=tuple(names.values()),
        alphabet=letters,
        initial=names[start],
        accepting=frozenset(names[s] for s in order if s & nfa.accepting),
        transitions=tuple((names[a], sym, names[b]) for a, sym, b in edges),
        name=f"det({nfa.name})",
    )


# ---------------------------------------------------------------------------
# text format (`_` as the label is an epsilon move, and a (state, symbol)
# may have several targets)


def parse_fsa(text: str) -> Nfa:
    fields = {"states": distinct_names, "alphabet": declared, "initial": verbatim,
              "accepting": split_names}
    name, values, rows = read_file(text, "fsa", fields, {"trans": _parse_transitions},
                                   required=fields)
    nfa = Nfa(
        states=values["states"],
        alphabet=values["alphabet"],
        initial=values["initial"],
        accepting=frozenset(values["accepting"]),
        transitions=tuple(t for _, _, ts in rows for t in ts),
        name=name,
    )
    known = set(nfa.states)
    for line_no, _, ts in rows:
        for src, label, dst in ts:
            if src not in known or dst not in known:
                raise ParseError(f"transition uses unknown state {src!r} or {dst!r}", line_no)
            if label is not None and label not in set(nfa.alphabet):
                raise ParseError(f"transition symbol {label!r} not in alphabet", line_no)
    if nfa.initial not in known:
        raise ParseError(f"initial state {nfa.initial!r} unknown", 1)
    return nfa


def _parse_transitions(text: str, line_no: int, what: str) -> list[tuple[str, Optional[str], str]]:
    """The transitions of one `trans: p a -> q, r` line, one per target."""
    lhs, dsts = split_arrow(text, line_no, "transition")
    toks = lhs.split()
    if len(toks) != 2:
        raise ParseError("transition lhs must be `state symbol`", line_no)
    src, sym = toks
    label = None if sym == "_" else sym
    return [(src, label, dst) for dst in split_names(dsts, line_no, "transition target")]


def serialize_fsa(nfa: Nfa) -> str:
    lines = [f"fsa {nfa.name}"]
    lines.append("states: " + ", ".join(nfa.states))
    lines.append("alphabet: " + ", ".join(nfa.alphabet))
    lines.append(f"initial: {nfa.initial}")
    lines.append("accepting: " + ", ".join(s for s in nfa.states if s in nfa.accepting))
    for src, label, dst in nfa.transitions:
        lines.append(f"trans: {src} {label if label is not None else '_'} -> {dst}")
    return "\n".join(lines) + "\n"
