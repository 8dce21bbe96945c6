"""Table-driven parallel rewriting systems and their conversion to
stack-indexed grammars.

A system rewrites every symbol occurrence of the current word simultaneously,
using productions from one table per step. In active normal form the
rewritable symbols are exactly the non-terminals, which is what the
conversion relies on: the table sequence of a parallel derivation is guessed
in reverse onto an index stack, then replayed one occurrence at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .engine import Budget
from .grammar import (
    GrammarError,
    IndexedGrammar,
    ParseError,
    Production,
    declared,
    fresh_name,
    read_sections,
    read_symbols,
    set_once,
)
from .search import EXPAND, FOUND, GOAL, HARD_CAP, PROVEN, UNKNOWN, Verdict, bfs, path


class NotInANF(GrammarError):
    """Raised when a conversion requires active normal form."""


@dataclass(frozen=True)
class Table:
    name: str
    rules: tuple[tuple[str, tuple[str, ...]], ...]

    def options(self, symbol: str) -> tuple[tuple[str, ...], ...]:
        return tuple(rhs for sym, rhs in self.rules if sym == symbol)


@dataclass(frozen=True)
class EtolSystem:
    alphabet: tuple[str, ...]  # the full working alphabet
    terminals: tuple[str, ...]
    axiom: str
    tables: tuple[Table, ...]
    name: str = field(default="etol", compare=False)

    def active_symbols(self) -> frozenset[str]:
        """Symbols some table can turn into something other than themselves."""
        return frozenset(
            sym for t in self.tables for sym, rhs in t.rules if rhs != (sym,)
        )


def validate_etol(sys: EtolSystem) -> list[str]:
    problems = []
    v = set(sys.alphabet)
    if not set(sys.terminals) <= v:
        problems.append("terminals must be part of the alphabet")
    if sys.axiom not in v:
        problems.append(f"axiom {sys.axiom!r} not in the alphabet")
    if not sys.tables:
        problems.append("a system needs at least one table")
    for t in sys.tables:
        covered = {sym for sym, _ in t.rules}
        for sym, rhs in t.rules:
            if sym not in v:
                problems.append(f"table {t.name}: rule for unknown symbol {sym!r}")
            for s in rhs:
                if s not in v:
                    problems.append(f"table {t.name}: rhs symbol {s!r} unknown")
        missing = v - covered
        if missing:
            problems.append(
                f"table {t.name}: no production for {sorted(missing)} (parallel totality)"
            )
    return problems


def check_anf(sys: EtolSystem) -> list[str]:
    """Active-normal-form violations: every terminal must be inert, every
    non-terminal rewritable."""
    active = sys.active_symbols()
    problems = []
    for t in sys.terminals:
        if t in active:
            problems.append(f"terminal {t!r} is active")
    for s in sys.alphabet:
        if s not in set(sys.terminals) and s not in active:
            problems.append(f"non-terminal {s!r} is inactive")
    return problems


# ---------------------------------------------------------------------------
# semantics


def etol_step(sys: EtolSystem, word, table: int | str, choices) -> tuple[str, ...]:
    """One parallel step: choices[i] is the option index (within the table's
    productions for that symbol) applied to occurrence i."""
    t = sys.tables[table] if isinstance(table, int) else next(
        tb for tb in sys.tables if tb.name == table
    )
    word = tuple(word)
    if len(choices) != len(word):
        raise GrammarError("need exactly one choice per occurrence")
    out: list[str] = []
    for sym, choice in zip(word, choices):
        opts = t.options(sym)
        if not opts:
            raise GrammarError(f"table {t.name} has no production for {sym!r}")
        if not 0 <= choice < len(opts):
            raise GrammarError(f"choice {choice} out of range for {sym!r} in {t.name}")
        out.extend(opts[choice])
    return tuple(out)


def _successor_words(sys: EtolSystem, word, inactive: frozenset[str]):
    """(table index, successor word) for every parallel step from word."""
    for ti, t in enumerate(sys.tables):
        option_lists = []
        ok = True
        for sym in word:
            if sym in inactive:
                option_lists.append(((sym,),))
                continue
            opts = t.options(sym)
            if not opts:
                ok = False
                break
            option_lists.append(opts)
        if not ok:
            continue
        for combo in itertools.product(*option_lists):
            yield ti, tuple(itertools.chain.from_iterable(combo))


@dataclass(frozen=True)
class EtolEnumeration:
    words: tuple[tuple[str, ...], ...]
    exhausted: bool
    words_seen: int
    stop: str  # why the search stopped: swept, max_steps or hard_cap

    def rendered(self) -> tuple[str, ...]:
        return tuple("".join(w) for w in self.words)


def _bounded_successors(sys: EtolSystem, max_inactive: int, max_active: Optional[int]):
    """Successor function for the search: the parallel steps to words with at
    most max_inactive inert and max_active (None: any number) active
    occurrences."""
    inactive = frozenset(sys.alphabet) - sys.active_symbols()

    def successors(word):
        for step in _successor_words(sys, word, inactive):
            n_inactive = sum(1 for s in step[1] if s in inactive)
            if n_inactive <= max_inactive and (
                max_active is None or len(step[1]) - n_inactive <= max_active
            ):
                yield step

    return successors


def etol_enumerate(sys: EtolSystem, max_len: int, budget: Budget) -> EtolEnumeration:
    """Terminal words of length <= max_len reachable within the budget;
    budget.max_width caps the number of active occurrences per word."""
    s = bfs((sys.axiom,), _bounded_successors(sys, max_len, budget.max_width),
            budget.max_steps, budget.hard_cap)
    terminals = set(sys.terminals)
    found = [w for w in s.parents if len(w) <= max_len and all(x in terminals for x in w)]
    return EtolEnumeration(
        words=tuple(sorted(found, key=lambda w: (len(w), w))),
        exhausted=s.swept,
        words_seen=len(s.parents),
        stop=s.stop,
    )


def etol_min_index(sys: EtolSystem, w, budget: Budget) -> Verdict:
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


# ---------------------------------------------------------------------------
# conversion


def etol_to_indexed(sys: EtolSystem) -> IndexedGrammar:
    """Stack-indexed grammar for the same language (system must be in active
    normal form). A fresh start variable pushes an arbitrary table sequence,
    reversed, then hands the stack to the axiom; each consume production
    replays one table entry on one occurrence."""
    problems = validate_etol(sys)
    if problems:
        raise GrammarError("invalid system: " + "; ".join(problems))
    anf = check_anf(sys)
    if anf:
        raise NotInANF("; ".join(anf))
    nonterminals = tuple(s for s in sys.alphabet if s not in set(sys.terminals))
    start = fresh_name("S", sys.alphabet)
    taken = set(sys.alphabet) | {start}
    idx_names = []
    for t in sys.tables:
        nm = t.name
        while nm in taken:
            nm += "#t"
        taken.add(nm)
        idx_names.append(nm)
    prods: list[Production] = []
    for nm in idx_names:
        prods.append(Production(start, (start,), push_index=nm))
    prods.append(Production(start, (sys.axiom,)))
    for t, nm in zip(sys.tables, idx_names):
        for sym, rhs in t.rules:
            if sym in set(sys.terminals):
                continue
            prods.append(Production(sym, rhs, lhs_index=nm))
    return IndexedGrammar(
        variables=(start,) + nonterminals,
        terminals=sys.terminals,
        indices=tuple(idx_names),
        productions=tuple(prods),
        start=start,
        name=f"idx({sys.name})",
    )


# ---------------------------------------------------------------------------
# text format


def parse_etol(text: str) -> EtolSystem:
    """Line format: `etol <name>`, `axiom:`, `terminals:`, optional `strict:`,
    then `table <name>:` blocks of `rule: B -> ν` lines. Without `strict:`,
    symbols a table does not mention default to the identity rule."""
    name, sections = read_sections(text, "etol")
    fields: dict = {}
    tables: list[tuple[str, list]] = []
    order: list[str] = []

    def note(sym):
        if sym not in order:
            order.append(sym)

    for line_no, key, value in sections:
        if key == "axiom":
            declared(value, line_no, key)
            set_once(fields, key, value, line_no)
            note(value)
        elif key == "terminals":
            set_once(fields, key, declared(value, line_no, key), line_no)
            for t in fields[key]:
                note(t)
        elif key == "strict":
            set_once(fields, key, True, line_no)
        elif key.startswith("table"):
            parts = key.split()
            if len(parts) != 2 or parts[0] != "table":
                raise ParseError("expected `table <name>:`", line_no)
            tables.append((parts[1], []))
        elif key == "rule":
            if not tables:
                raise ParseError("rule outside a table block", line_no)
            lhs, arrow, rhs = value.partition("->")
            if not arrow:
                raise ParseError("rule needs `->`", line_no)
            sym = lhs.strip()
            declared(sym, line_no, key)
            toks = read_symbols(rhs.split(), line_no)
            note(sym)
            for s in toks:
                note(s)
            tables[-1][1].append((sym, toks))
        else:
            raise ParseError(f"unknown section {key!r}", line_no)
    if "axiom" not in fields or "terminals" not in fields:
        raise ParseError("missing `axiom:` or `terminals:`", 1)
    if not tables:
        raise ParseError("missing `table <name>:` block", 1)
    filled = []
    for tname, rules in tables:
        covered = {sym for sym, _ in rules}
        if "strict" not in fields:
            rules = list(rules) + [(s, (s,)) for s in order if s not in covered]
        filled.append(Table(tname, tuple(rules)))
    return EtolSystem(
        alphabet=tuple(order),
        terminals=fields["terminals"],
        axiom=fields["axiom"],
        tables=tuple(filled),
        name=name,
    )


def serialize_etol(sys: EtolSystem) -> str:
    lines = [f"etol {sys.name}", f"axiom: {sys.axiom}", "terminals: " + ", ".join(sys.terminals), "strict:"]
    for t in sys.tables:
        lines.append(f"table {t.name}:")
        for sym, rhs in t.rules:
            lines.append(f"rule: {sym} -> {' '.join(rhs) if rhs else '_'}")
    return "\n".join(lines) + "\n"
