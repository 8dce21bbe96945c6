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
from typing import Optional

from . import field, record
from .engine import Budget
from .grammar import (
    GrammarError,
    IndexedGrammar,
    ParseError,
    Production,
    declared,
    fresh_name,
    read_file,
    read_symbols,
    split_arrow,
)
from .search import PROVEN, Verdict, bfs


class NotInANF(GrammarError):
    """Raised when a conversion requires active normal form."""


@record
class Table:
    name: str
    rules: tuple[tuple[str, tuple[str, ...]], ...]

    def options(self, symbol: str) -> tuple[tuple[str, ...], ...]:
        return tuple(rhs for sym, rhs in self.rules if sym == symbol)


@record
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


def etol_enumerate(sys: EtolSystem, max_len: int, budget: Budget) -> Verdict:
    """Proven, with the terminal words of length <= max_len reachable within
    the budget, in length-lexicographic order; budget.max_width caps the
    number of active occurrences per word. `info` holds `stop` (why the
    search stopped: swept, max_steps or hard_cap) and `forms` (the number of
    words it stored)."""
    s = bfs((sys.axiom,), _bounded_successors(sys, max_len, budget.max_width),
            budget.max_steps, budget.hard_cap)
    terminals = set(sys.terminals)
    found = [w for w in s.parents if len(w) <= max_len and all(x in terminals for x in w)]
    return Verdict(PROVEN, tuple(sorted(found, key=lambda w: (len(w), w))),
                   {"stop": s.stop, "forms": len(s.parents)})


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
    """Line format: `etol <name>`, `axiom:`, `terminals:`, optional `strict:`
    (with no value), then `table <name>:` blocks of `rule: B -> ν` lines.
    Without `strict:`, symbols a table does not mention default to the
    identity rule; with it, a table that misses a symbol is an error at its
    `table` line. The alphabet is every symbol in the order the file first
    names it."""
    tables: list[tuple[str, int, list]] = []
    order: dict[str, None] = {}  # the alphabet, as an ordered set

    def axiom(value, line_no, what):
        if len(declared(value, line_no, what)) != 1:
            raise ParseError(f"`axiom:` takes one symbol, got {value!r}", line_no)
        order.setdefault(value)
        return value

    def terminals(value, line_no, what):
        names = declared(value, line_no, what)
        order.update(dict.fromkeys(names))
        return names

    def strict(value, line_no, what):
        if value:
            raise ParseError(f"`strict:` takes no value, got {value!r}", line_no)
        return True

    def table(value, line_no, what):
        tables.append((value, line_no, []))

    def rule(value, line_no, what):
        if not tables:
            raise ParseError("rule outside a table block", line_no)
        lhs, rhs = split_arrow(value, line_no, what)
        sym = lhs.strip()
        declared(sym, line_no, what)
        toks = read_symbols(rhs.split(), line_no)
        order.update(dict.fromkeys((sym, *toks)))
        tables[-1][2].append((sym, toks))

    name, values, _ = read_file(text, "etol",
                                {"axiom": axiom, "terminals": terminals, "strict": strict},
                                {"table": table, "rule": rule}, block="table")
    if "axiom" not in values or "terminals" not in values:
        raise ParseError("missing `axiom:` or `terminals:`", 1)
    if not tables:
        raise ParseError("missing `table <name>:` block", 1)
    filled = []
    for tname, line_no, rules in tables:
        covered = {sym for sym, _ in rules}
        missing = [s for s in order if s not in covered]
        if "strict" not in values:
            rules = rules + [(s, (s,)) for s in missing]
        elif missing:  # the whole file is read: a later line may have added a symbol
            raise ParseError(f"table {tname}: no production for {sorted(missing)} "
                             "(parallel totality)", line_no)
        filled.append(Table(tname, tuple(rules)))
    return EtolSystem(
        alphabet=tuple(order),
        terminals=values["terminals"],
        axiom=values["axiom"],
        tables=tuple(filled),
        name=name,
    )
