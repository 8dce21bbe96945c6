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
import re
from typing import Iterable, Iterator, Optional, Sequence

from . import field, record

PLAIN = "plain"
PUSH = "push"
CONSUME = "consume"

#: Characters that never occur in user-supplied symbol names. `#` and `|`
#: are reserved so generated names (Z#1, <p|A|q>, Y#0#1#2 ...) cannot collide
#: with user names; the rest would break the line-oriented file formats.
RESERVED_CHARS = "#|"
FORBIDDEN_CHARS = RESERVED_CHARS + ",[]{}" + " \t\r\n"
_RESERVED = re.compile(f"[{re.escape(RESERVED_CHARS)}]")
_FORBIDDEN = re.compile(f"[{re.escape(FORBIDDEN_CHARS)}]")


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
    if name == "_":  # the empty word on a right side, a silent move in a transition
        return "`_` is the empty word, not a symbol name"
    found = _FORBIDDEN.search(name)
    if found:
        return f"symbol name {name!r} contains forbidden character {found.group()!r}"
    return None


def is_generated_name(name: str) -> bool:
    return _RESERVED.search(name) is not None


@record
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


@record
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


# ---------------------------------------------------------------------------
# sentential forms


@record
class Terminal:
    symbol: str


@record
class Var:
    symbol: str
    stack: tuple[str, ...] = ()  # top first


Item = Terminal | Var


@record
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


@record
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


def derivation_to_trace(d: Derivation) -> str:
    """A derivation witness on one line: each step and its form, ended by ` ; `."""
    lines = [f"init | {render_form(d.forms[0])}"]
    for (pid, pos), form in zip(d.steps, d.forms[1:]):
        lines.append(f"p{pid} @ {pos} | {render_form(form)}")
    return " ; ".join(lines) + " ; "


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


def located_problems(g: IndexedGrammar) -> list[tuple[Optional[int], str]]:
    """Every structural violation of `g` (none when it is valid), each with
    the number of its production, or None when it is a problem of the whole
    grammar."""
    problems = []
    for group, names in (("variable", g.variables), ("terminal", g.terminals), ("index", g.indices)):
        seen = set()
        for n in names:
            err = symbol_name_error(n) if not is_generated_name(n) else None
            if err:
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
    located: list[tuple[Optional[int], str]] = [(None, msg) for msg in problems]
    for i, p in enumerate(g.productions):
        where = f"production {i}"
        if p.lhs_var not in vs:
            located.append((i, f"{where}: lhs {p.lhs_var!r} is not a variable"))
        if p.lhs_index is not None and p.lhs_index not in is_:
            located.append((i, f"{where}: consumed symbol {p.lhs_index!r} is not an index"))
        if p.push_index is not None:
            if p.push_index not in is_:
                located.append((i, f"{where}: pushed symbol {p.push_index!r} not an index"))
            if p.rhs and p.rhs[0] not in vs:
                located.append((i, f"{where}: push target {p.rhs[0]!r} is not a variable"))
        else:
            for s in p.rhs:
                if s not in vs and s not in ts:
                    located.append((i, f"{where}: rhs symbol {s!r} is neither variable nor terminal"))
    return located


def raise_located(problems: list[tuple[Optional[int], str]], lines: Sequence[int]) -> None:
    """Raise one ParseError that lists every problem, at the line of the
    first: `lines[i]` when it is a problem of item i, else line 1."""
    if problems:
        i = problems[0][0]
        raise ParseError("; ".join(msg for _, msg in problems), 1 if i is None else lines[i])


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


# ---------------------------------------------------------------------------
# text format


def strip_comment(line: str) -> str:
    # `#` starts a comment only at the start of a line or after whitespace;
    # inside a token it is part of a generated symbol name.
    i = line.find("#")
    while i > 0 and line[i - 1] not in " \t":
        i = line.find("#", i + 1)
    return line if i < 0 else line[:i]


def read_file(text: str, kind: str, fields: dict, rows: dict, required: Iterable[str] = (),
              block: Optional[str] = None) -> tuple[str, dict, list[tuple[int, str, object]]]:
    """Read the layout that every igkit file format shares: a `<kind> <name>`
    header, then one `key: value` line per section, with comments and blank
    lines skipped. Each value goes to the reader its key has in `fields` (a
    key that may appear once) or `rows` (a key that may repeat), called as
    `reader(value, line, key)` when the line is read, so the first bad line
    is the one reported. When `block` is given, a `<block> <name>:` line opens
    a block and is read as the row `block` with the value `<name>`. Returns
    the name, the field values by key, and the (line, key, value) rows in
    file order."""
    name = None
    values: dict = {}
    found = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (strip_comment(raw) if "#" in raw else raw).strip()
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
        key, value = key.strip(), value.strip()
        if block is not None and key.startswith(block):
            parts = key.split()
            if len(parts) != 2 or parts[0] != block:
                raise ParseError(f"expected `{block} <name>:`", line_no)
            if value:
                raise ParseError(f"`{block} <name>:` takes no value, got {value!r}", line_no)
            key, value = block, parts[1]
        if key in fields:
            value = fields[key](value, line_no, key)
            if key in values:
                raise ParseError(f"duplicate `{key}:` line", line_no)
            values[key] = value
        elif key in rows:
            found.append((line_no, key, rows[key](value, line_no, key)))
        else:
            raise ParseError(f"unknown section {key!r}", line_no)
    if name is None:
        raise ParseError(f"empty {kind} file", 1)
    for key in required:
        if key not in values:
            raise ParseError(f"missing `{key}:` line", 1)
    return name, values, found


def verbatim(text: str, line_no: int, what: str) -> str:
    """A value kept as written, such as the one name of `start:`."""
    return text


def read_count(text: str, line_no: int, what: str) -> int:
    """A non-negative decimal number: ASCII digits only, so no sign and no `_`."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"expected a non-negative integer in `{what}:`, got {text!r}", line_no)
    return int(text)


def split_arrow(text: str, line_no: int, what: str) -> tuple[str, str]:
    """The two sides of a `lhs -> rhs` value."""
    lhs, arrow, rhs = text.partition("->")
    if not arrow:
        raise ParseError(f"{what} needs `->`", line_no)
    return lhs, rhs


def split_names(text: str, line_no: int, what: str) -> tuple[str, ...]:
    """A comma list; empty text is the empty list, an empty item is an error."""
    if not text.strip():
        return ()
    names = tuple(tok.strip() for tok in text.split(","))
    if "" in names:
        raise ParseError(f"empty name in {what} list", line_no)
    return names


def distinct_names(text: str, line_no: int, what: str) -> tuple[str, ...]:
    """split_names, refusing a name listed twice."""
    names = split_names(text, line_no, what)
    if len(set(names)) < len(names):
        twice = next(name for i, name in enumerate(names) if name in names[:i])
        raise ParseError(f"name {twice!r} listed twice in {what} list", line_no)
    return names


def declared(text: str, line_no: int, what: str) -> tuple[str, ...]:
    """A comma list of declared symbols (see distinct_names). `_` is not one:
    on a right side it is the empty word, and in a transition a silent move."""
    names = distinct_names(text, line_no, what)
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
    fields = {"variables": declared, "terminals": declared, "indices": declared, "start": verbatim}
    name, values, prods = read_file(text, "grammar", fields, {"prod": _parse_production},
                                   required=fields)
    g = IndexedGrammar(
        variables=values["variables"],
        terminals=values["terminals"],
        indices=values["indices"],
        productions=tuple(p for _, _, p in prods),
        start=values["start"],
        name=name,
    )
    raise_located(located_problems(g), [line_no for line_no, _, _ in prods])
    return g


def _parse_production(body: str, line_no: int, what: str) -> Production:
    lhs_text, rhs_text = split_arrow(body, line_no, "production")
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
    if "[" not in rhs_text and "]" not in rhs_text and "_" not in rhs_text:
        # no push, no bracket and no empty word: the checks below pass
        return Production(lhs_var, tuple(rhs_toks), lhs_index)
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
    return Production(lhs_var, read_symbols(rhs_toks, line_no), lhs_index, push_index)


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
