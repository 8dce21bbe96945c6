"""Data model and single-step semantics for stack-indexed grammars.

A grammar is a 5-tuple (variables, terminals, indices, productions, start)
where every variable occurrence in a sentential form carries a stack of index
symbols. Productions come in exactly three forms:

* plain    ``A -> s1 s2 ...``    each right-hand variable receives a copy of
  the full stack of the rewritten occurrence;
* push     ``A -> B [+f]``       the occurrence becomes B with f pushed on top;
* consume  ``A [f] -> s1 ...``   applicable only when f is the top of the
  stack; the top is popped and every right-hand variable receives a copy of
  the popped stack.

All types are immutable values; none of the operations mutate their inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

PLAIN = "plain"
PUSH = "push"
CONSUME = "consume"

SPECIAL = "special"
LINEAR = "linear"

#: Characters that never occur in user-supplied symbol names. `#` and `|`
#: are reserved so generated names (Z#1, <p|A|q>, Y#0#1#2 ...) cannot collide
#: with user names; the rest would break the line-oriented file formats.
RESERVED_CHARS = "#|"
FORBIDDEN_CHARS = RESERVED_CHARS + ",[]{}" + " \t\r\n"


class GrammarError(Exception):
    """Base class for grammar construction and application errors."""


class PositionNotVariable(GrammarError):
    pass


class LhsMismatch(GrammarError):
    pass


class EmptyStackOnConsume(GrammarError):
    pass


class TopIndexMismatch(GrammarError):
    pass


class ParseError(GrammarError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


def symbol_name_error(name: str) -> Optional[str]:
    """Return a description of why `name` is not a legal user symbol name."""
    if not name:
        return "symbol name is empty"
    for ch in name:
        if ch in FORBIDDEN_CHARS:
            return f"symbol name {name!r} contains forbidden character {ch!r}"
    return None


def is_generated_name(name: str) -> bool:
    return any(ch in RESERVED_CHARS for ch in name)


@dataclass(frozen=True)
class Production:
    """One production. The kind is determined by which fields are set.

    lhs_index is the consumed index (consume form) or None; push_index is the
    pushed index (push form) or None. For plain/consume productions rhs is a
    sequence over variables and terminals; for push productions rhs is the
    single target variable.
    """

    lhs_var: str
    rhs: tuple[str, ...]
    lhs_index: Optional[str] = None
    push_index: Optional[str] = None

    def __post_init__(self):
        if self.push_index is not None:
            if self.lhs_index is not None:
                raise GrammarError("a push production cannot consume an index")
            if len(self.rhs) != 1:
                raise GrammarError("a push production needs exactly one rhs variable")

    @property
    def kind(self) -> str:
        if self.push_index is not None:
            return PUSH
        if self.lhs_index is not None:
            return CONSUME
        return PLAIN


@dataclass(frozen=True)
class IndexedGrammar:
    variables: tuple[str, ...]
    terminals: tuple[str, ...]
    indices: tuple[str, ...]
    productions: tuple[Production, ...]
    start: str
    name: str = field(default="g", compare=False)

    @functools.cached_property
    def variable_set(self) -> frozenset[str]:
        return frozenset(self.variables)

    @functools.cached_property
    def terminal_set(self) -> frozenset[str]:
        return frozenset(self.terminals)

    @functools.cached_property
    def index_set(self) -> frozenset[str]:
        return frozenset(self.indices)

    def classify(self, p: Production) -> str:
        """A production is special when its rhs contains >= 2 variable occurrences."""
        n = sum(1 for s in p.rhs if s in self.variable_set)
        return SPECIAL if p.kind != PUSH and n >= 2 else LINEAR

    def special_productions(self) -> tuple[Production, ...]:
        return tuple(p for p in self.productions if self.classify(p) == SPECIAL)


def make_grammar(name, variables, terminals, indices, productions, start) -> IndexedGrammar:
    g = IndexedGrammar(
        variables=tuple(variables),
        terminals=tuple(terminals),
        indices=tuple(indices),
        productions=tuple(productions),
        start=start,
        name=name,
    )
    problems = validate(g)
    if problems:
        raise GrammarError("invalid grammar: " + "; ".join(problems))
    return g


# ---------------------------------------------------------------------------
# sentential forms


@dataclass(frozen=True)
class Terminal:
    symbol: str


@dataclass(frozen=True)
class Var:
    symbol: str
    stack: tuple[str, ...] = ()  # top first


Item = Terminal | Var


@dataclass(frozen=True)
class SententialForm:
    items: tuple[Item, ...]

    def width(self) -> int:
        return sum(1 for it in self.items if isinstance(it, Var))

    def is_terminal(self) -> bool:
        return all(isinstance(it, Terminal) for it in self.items)

    def yield_word(self) -> tuple[str, ...]:
        if not self.is_terminal():
            raise GrammarError("form still contains variables")
        return tuple(it.symbol for it in self.items)

    def var_positions(self) -> tuple[int, ...]:
        return tuple(i for i, it in enumerate(self.items) if isinstance(it, Var))


def start_form(g: IndexedGrammar) -> SententialForm:
    return SententialForm((Var(g.start, ()),))


def render_form(form: SententialForm) -> str:
    parts = []
    for it in form.items:
        if isinstance(it, Terminal):
            parts.append(it.symbol)
        elif it.stack:
            parts.append(f"{it.symbol}[{','.join(it.stack)}]")
        else:
            parts.append(it.symbol)
    return " ".join(parts) if parts else "_"


@dataclass(frozen=True)
class Derivation:
    """A replayable derivation: forms[0] is the start form and applying
    production g.productions[steps[i][0]] at item position steps[i][1] to
    forms[i] yields forms[i+1]."""

    forms: tuple[SententialForm, ...]
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.forms) != len(self.steps) + 1:
            raise GrammarError("derivation shape mismatch")

    def index(self) -> int:
        return max(f.width() for f in self.forms)

    def special_count(self, g: IndexedGrammar) -> int:
        return sum(1 for pid, _ in self.steps if g.classify(g.productions[pid]) == SPECIAL)

    def final(self) -> SententialForm:
        return self.forms[-1]


def derivation_to_trace(g: IndexedGrammar, d: Derivation) -> str:
    """Serialize a derivation witness; one line per step."""
    lines = [f"init | {render_form(d.forms[0])}"]
    for (pid, pos), form in zip(d.steps, d.forms[1:]):
        lines.append(f"p{pid} @ {pos} | {render_form(form)}")
    return "\n".join(lines) + "\n"


def replay(g: IndexedGrammar, d: Derivation) -> SententialForm:
    """Re-apply every step; raises if the recorded forms are inconsistent."""
    form = d.forms[0]
    for (pid, pos), expected in zip(d.steps, d.forms[1:]):
        form = apply_production(g, form, pos, g.productions[pid])
        if form != expected:
            raise GrammarError("derivation does not replay")
    return form


# ---------------------------------------------------------------------------
# validation


def validate(g: IndexedGrammar) -> list[str]:
    """Return every structural violation (empty list means the grammar is valid)."""
    problems = []
    for group, names in (("variable", g.variables), ("terminal", g.terminals), ("index", g.indices)):
        seen = set()
        for n in names:
            err = symbol_name_error(n) if not is_generated_name(n) else None
            if err and not is_generated_name(n):
                problems.append(f"{group} {n!r}: {err}")
            if n in seen:
                problems.append(f"duplicate {group} name {n!r}")
            seen.add(n)
    vs, ts, is_ = g.variable_set, g.terminal_set, g.index_set
    if vs & ts:
        problems.append(f"alphabets not disjoint: {sorted(vs & ts)} in both variables and terminals")
    if vs & is_:
        problems.append(f"alphabets not disjoint: {sorted(vs & is_)} in both variables and indices")
    if ts & is_:
        problems.append(f"alphabets not disjoint: {sorted(ts & is_)} in both terminals and indices")
    if g.start not in vs:
        problems.append(f"start symbol {g.start!r} is not a variable")
    for i, p in enumerate(g.productions):
        where = f"production {i}"
        if p.lhs_var not in vs:
            problems.append(f"{where}: lhs {p.lhs_var!r} is not a variable")
        if p.lhs_index is not None and p.lhs_index not in is_:
            problems.append(f"{where}: consumed symbol {p.lhs_index!r} is not an index")
        if p.push_index is not None:
            if p.push_index not in is_:
                problems.append(f"{where}: pushed symbol {p.push_index!r} not an index")
            if p.rhs and p.rhs[0] not in vs:
                problems.append(f"{where}: push target {p.rhs[0]!r} is not a variable")
        else:
            for s in p.rhs:
                if s not in vs and s not in ts:
                    problems.append(f"{where}: rhs symbol {s!r} is neither variable nor terminal")
    return problems


# ---------------------------------------------------------------------------
# one-step derivation


def apply_production(g: IndexedGrammar, form: SententialForm, pos: int, p: Production) -> SententialForm:
    """Rewrite the variable occurrence at item position `pos` with `p`."""
    if pos < 0 or pos >= len(form.items) or not isinstance(form.items[pos], Var):
        raise PositionNotVariable(f"position {pos} is not a variable occurrence")
    occ = form.items[pos]
    if occ.symbol != p.lhs_var:
        raise LhsMismatch(f"occurrence is {occ.symbol!r}, production rewrites {p.lhs_var!r}")
    if p.kind == PUSH:
        new_items: tuple[Item, ...] = (Var(p.rhs[0], (p.push_index,) + occ.stack),)
    else:
        if p.kind == CONSUME:
            if not occ.stack:
                raise EmptyStackOnConsume(f"{occ.symbol!r} has an empty stack")
            if occ.stack[0] != p.lhs_index:
                raise TopIndexMismatch(
                    f"top index is {occ.stack[0]!r}, production consumes {p.lhs_index!r}"
                )
            stack = occ.stack[1:]
        else:
            stack = occ.stack
        new_items = tuple(
            Var(s, stack) if s in g.variable_set else Terminal(s) for s in p.rhs
        )
    return SententialForm(form.items[:pos] + new_items + form.items[pos + 1:])


def successors(g: IndexedGrammar, form: SententialForm) -> list[tuple[int, Production, SententialForm]]:
    """All one-step derivatives of `form`, ordered by position then by
    production list order."""
    out = []
    for pos in form.var_positions():
        occ = form.items[pos]
        for p in g.productions:
            if p.lhs_var != occ.symbol:
                continue
            if p.kind == CONSUME and (not occ.stack or occ.stack[0] != p.lhs_index):
                continue
            out.append((pos, p, apply_production(g, form, pos, p)))
    return out


# ---------------------------------------------------------------------------
# text format


def strip_comment(line: str) -> str:
    # `#` starts a comment only at the start of a line or after whitespace;
    # inside a token it is part of a generated symbol name.
    if line.startswith("#"):
        return ""
    for i, ch in enumerate(line):
        if ch == "#" and line[i - 1] in " \t":
            return line[:i]
    return line


def read_sections(text: str, kind: str) -> tuple[str, list[tuple[int, str, str]]]:
    """Read the layout that every igkit file format shares: a `<kind> <name>`
    header, then one `key: value` line per section, with comments and blank
    lines skipped. Returns the name and the (line number, key, value) triples
    in file order, keys and values stripped."""
    name = None
    sections = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        if name is None:
            parts = line.split()
            if parts[0] != kind or len(parts) != 2:
                raise ParseError(f"expected header `{kind} <name>`", line_no)
            name = parts[1]
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected `key: value`, got {line!r}", line_no)
        sections.append((line_no, key.strip(), value.strip()))
    if name is None:
        raise ParseError(f"empty {kind} file", 1)
    return name, sections


def set_once(fields: dict, key: str, value, line_no: int) -> None:
    """Record the value of a single-valued section; a second line is an error."""
    if key in fields:
        raise ParseError(f"duplicate `{key}:` line", line_no)
    fields[key] = value


def require(fields: dict, keys: Iterable[str]) -> None:
    for key in keys:
        if key not in fields:
            raise ParseError(f"missing `{key}:` line", 1)


def read_int(text: str, line_no: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer in `{what}:`, got {text!r}", line_no) from None


def split_names(text: str, line_no: int, what: str) -> tuple[str, ...]:
    """A comma list; empty text is the empty list, an empty item is an error."""
    names = []
    text = text.strip()
    if not text:
        return ()
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ParseError(f"empty name in {what} list", line_no)
        names.append(tok)
    return tuple(names)


def declared(text: str, line_no: int, what: str) -> tuple[str, ...]:
    """A comma list of declared symbols (see split_names). `_` is not one: on
    a right side it is the empty word, and in a transition a silent move."""
    names = split_names(text, line_no, what)
    if "_" in names:
        raise ParseError(f"`_` cannot be declared in `{what}:`", line_no)
    return names


def read_symbols(toks: list[str], line_no: int) -> tuple[str, ...]:
    """The tokens of a right side; `_` alone is the empty word."""
    if toks == ["_"]:
        return ()
    if "_" in toks:
        raise ParseError("`_` (empty rhs) cannot be mixed with symbols", line_no)
    return tuple(toks)


def parse_grammar(text: str) -> IndexedGrammar:
    """Parse the line-oriented grammar format (see serialize_grammar)."""
    name, sections = read_sections(text, "grammar")
    fields: dict = {}
    prod_lines: list[tuple[int, str]] = []
    for line_no, key, value in sections:
        if key in ("variables", "terminals", "indices"):
            set_once(fields, key, declared(value, line_no, key), line_no)
        elif key == "start":
            set_once(fields, key, value, line_no)
        elif key == "prod":
            prod_lines.append((line_no, value))
        else:
            raise ParseError(f"unknown section {key!r}", line_no)
    require(fields, ("variables", "terminals", "indices", "start"))
    g = IndexedGrammar(
        variables=fields["variables"],
        terminals=fields["terminals"],
        indices=fields["indices"],
        productions=tuple(_parse_production(body, line_no) for line_no, body in prod_lines),
        start=fields["start"],
        name=name,
    )
    problems = validate(g)
    if problems:
        raise ParseError("; ".join(problems), 1)
    return g


def _parse_production(body: str, line_no: int) -> Production:
    lhs_text, arrow, rhs_text = body.partition("->")
    if not arrow:
        raise ParseError("production needs `->`", line_no)
    lhs_toks = lhs_text.split()
    lhs_index = None
    if len(lhs_toks) == 2 and lhs_toks[1].startswith("[") and lhs_toks[1].endswith("]"):
        lhs_index = lhs_toks[1][1:-1]
        if lhs_index.startswith("+"):
            raise ParseError("`[+f]` marks a push and belongs on the rhs", line_no)
        lhs_toks = lhs_toks[:1]
    if len(lhs_toks) != 1:
        raise ParseError(f"bad production lhs {lhs_text.strip()!r}", line_no)
    lhs_var = lhs_toks[0]

    rhs_toks = rhs_text.split()
    push_index = None
    if rhs_toks and rhs_toks[-1].startswith("[+") and rhs_toks[-1].endswith("]"):
        push_index = rhs_toks[-1][2:-1]
        rhs_toks = rhs_toks[:-1]
        if len(rhs_toks) != 1 or rhs_toks == ["_"]:
            raise ParseError("push production must be `A -> B [+f]`", line_no)
        if lhs_index is not None:
            raise ParseError("a push production cannot consume an index", line_no)
    for tok in rhs_toks:
        if "[" in tok or "]" in tok:
            raise ParseError(f"unexpected bracket in rhs token {tok!r}", line_no)
    return Production(
        lhs_var=lhs_var,
        rhs=read_symbols(rhs_toks, line_no),
        lhs_index=lhs_index,
        push_index=push_index,
    )


def serialize_grammar(g: IndexedGrammar) -> str:
    """Inverse of parse_grammar: parse(serialize(g)) is structurally equal to g."""
    lines = [f"grammar {g.name}"]
    lines.append("variables: " + ", ".join(g.variables))
    lines.append("terminals: " + ", ".join(g.terminals))
    lines.append("indices: " + ", ".join(g.indices))
    lines.append(f"start: {g.start}")
    for p in g.productions:
        lhs = p.lhs_var if p.lhs_index is None else f"{p.lhs_var} [{p.lhs_index}]"
        if p.kind == PUSH:
            rhs = f"{p.rhs[0]} [+{p.push_index}]"
        elif p.rhs:
            rhs = " ".join(p.rhs)
        else:
            rhs = "_"
        lines.append(f"prod: {lhs} -> {rhs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generated names


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """Smallest `base#n` not present in `taken`."""
    taken = set(taken)
    n = 0
    while f"{base}#{n}" in taken:
        n += 1
    return f"{base}#{n}"


def fresh_names(base: str, taken: Iterable[str]) -> Iterator[str]:
    taken = set(taken)
    n = 0
    while True:
        cand = f"{base}#{n}"
        n += 1
        if cand not in taken:
            taken.add(cand)
            yield cand
