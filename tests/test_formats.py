"""The six line formats: the message and line number of each parse error,
format by format, and parse(serialize(x)) == x for automata and semilinear
sets (the other four formats have their round trips beside their models)."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igkit import fixture_text
from igkit.automata import Nfa, parse_fsa, serialize_fsa
from igkit.cli import main, parse_report
from igkit.closure import parse_morphism
from igkit.counters import parse_ncm
from igkit.etol import parse_etol
from igkit.grammar import GrammarError, ParseError, parse_grammar
from igkit.semilinear import GinsburgShape, LinearSet, SemilinearSet, parse_slset, serialize_slset

PARSERS = {
    "grammar": parse_grammar,
    "fsa": parse_fsa,
    "morphism": parse_morphism,
    "slset": parse_slset,
    "etol": parse_etol,
    "ncm": parse_ncm,
}

# Valid bodies (after the header) that the per-format rows below extend.
G = "variables: S\nterminals: a\nindices: f\nstart: S\n"
FSA = "states: q, p\nalphabet: a\ninitial: q\naccepting: p\n"
NCM = "states: s, f\nalphabet: a\ncounters: 1\nreversals: 1\ninitial: s\nhalt: f\n"
ETOL = "axiom: S\nterminals: a\n"


def shared_rows(kind):
    """The errors that every format raises the same way."""
    return [
        (kind, "nope n\n", 1, f"expected header `{kind} <name>`"),
        (kind, f"# c\n\nn {kind}\n", 3, f"expected header `{kind} <name>`"),
        (kind, f"{kind} n\n\n  # c\nbogus\n", 4, "expected `key: value`, got 'bogus'"),
        (kind, f"{kind} n\nbogus: 1\n", 2, "unknown section 'bogus'"),
        (kind, "", 1, f"empty {kind} file"),
        (kind, "# only a comment\n\n", 1, f"empty {kind} file"),
    ]


ROWS = [row for kind in PARSERS for row in shared_rows(kind)] + [
    ("grammar", "grammar a b\n", 1, "expected header `grammar <name>`"),
    ("grammar", "grammar\n", 1, "expected header `grammar <name>`"),
    ("grammar", "grammars g\n", 1, "expected header `grammar <name>`"),
    ("grammar", f"grammar g\n{G}prod: S => a\n", 6, "production needs `->`"),
    ("grammar", f"grammar g\n{G}start: S\n", 6, "duplicate `start:` line"),
    ("grammar", "grammar g\nvariables: S, , T\n", 2, "empty name in variables list"),
    ("grammar", f"grammar g\n{G}prod: S -> a _\n", 6,
     "`_` (empty rhs) cannot be mixed with symbols"),
    ("grammar", f"grammar g\n{G}prod: S [+f] -> a\n", 6,
     "`[+f]` marks a push and belongs on the rhs"),
    ("grammar", "grammar g\nvariables: S\n", 1, "missing `terminals:` line"),
    ("grammar", f"grammar g\n{G}prod: S -> _ [+f]\n", 6, "push production must be `A -> B [+f]`"),
    ("grammar", f"grammar g\n{G}prod: S -> T\n", 1,
     "production 0: rhs symbol 'T' is neither variable nor terminal"),
    ("fsa", f"fsa d\n{FSA}trans: q a p\n", 6, "transition needs `->`"),
    ("fsa", f"fsa d\n{FSA}trans: q -> p\n", 6, "transition lhs must be `state symbol`"),
    ("fsa", "fsa d\nstates: q\nstates: q\n", 3, "duplicate `states:` line"),
    ("fsa", "fsa d\nstates: q\ninitial: q\n", 1, "missing `alphabet:` line"),
    ("fsa", f"fsa d\n{FSA}trans: q b -> p\n", 1, "transition symbol 'b' not in alphabet"),
    ("fsa", "fsa d\nstates: q,,p\n", 2, "empty name in states list"),
    ("fsa", f"fsa d\n{FSA}trans: q a -> p, , q\n", 6, "empty name in transition target list"),
    ("morphism", "morphism h\nmap: a -> x\nmap: a -> y\n", 3, "duplicate map for 'a'"),
    ("morphism", "morphism h\nmap: a x\n", 2, "map line needs `->`"),
    ("morphism", "morphism h\ntarget: x\ntarget: x\n", 3, "duplicate `target:` line"),
    ("morphism", "morphism h\ntarget: x,\n", 2, "empty name in target list"),
    ("morphism", "morphism h\nmap: a -> x _\n", 2, "`_` (empty rhs) cannot be mixed with symbols"),
    ("morphism", "morphism h\nmap: a -> x\nmap: b -> y\ntarget: x\n", 3,
     "image letter 'y' is not in `target:`"),
    ("slset", "slset s\ndim: 1\nlinear: base (1)\n", 3, "bad clause 'base (1)'"),
    ("slset", "slset s\ndim: 1\nlinear: periods = (1)\n", 3, "linear block needs `base = (…)`"),
    ("slset", "slset s\ndim: 1\nlinear: base = (x)\n", 3, "bad vector '(x)'"),
    ("slset", "slset s\nlinear: base = (1)\n", 1, "missing `dim:` line"),
    ("slset", "slset s\ndim: 2\nlinear: base = (1)\n", 1, "component dimension 1 != dim 2"),
    ("slset", "slset s\ndim: 1\nshape: a, , b\n", 3, "empty shape word"),
    ("slset", "slset s\ndim: x\n", 2, "expected an integer in `dim:`, got 'x'"),
    ("slset", "slset s\ndim: 1\ndim: 1\n", 3, "duplicate `dim:` line"),
    ("slset", "slset s\ndim: 1\nlinear: base = (-1)\n", 3, "vectors must be non-negative"),
    ("slset", "slset s\ndim: 2\nlinear: base = (1,0); periods = (1)\n", 3,
     "vector length does not match the dimension"),
    ("slset", "slset s\ndim: 1\nshape: a\nshape: b\n", 4, "duplicate `shape:` line"),
    ("etol", f"etol e\n{ETOL}rule: S -> a\n", 4, "rule outside a table block"),
    ("etol", f"etol e\n{ETOL}table t:\nrule: S a\n", 5, "rule needs `->`"),
    ("etol", f"etol e\n{ETOL}table a b:\n", 4, "expected `table <name>:`"),
    ("etol", "etol e\naxiom: S\n", 1, "missing `axiom:` or `terminals:`"),
    ("etol", f"etol e\n{ETOL}", 1, "missing `table <name>:` block"),
    ("etol", f"etol e\n{ETOL}axiom: T\n", 4, "duplicate `axiom:` line"),
    ("etol", f"etol e\n{ETOL}terminals: b\n", 4, "duplicate `terminals:` line"),
    ("etol", "etol e\naxiom: S\nterminals: a, , b\n", 3, "empty name in terminals list"),
    ("etol", f"etol e\n{ETOL}table t:\nrule: S -> a _\n", 5,
     "`_` (empty rhs) cannot be mixed with symbols"),
    ("etol", f"etol e\n{ETOL}tables t:\n", 4, "expected `table <name>:`"),
    ("ncm", f"ncm m\n{NCM}trans: s, a, tests(z) -> f, deltas(x)\n", 8, "bad delta 'x'"),
    ("ncm", f"ncm m\n{NCM}trans: s, a -> f, deltas(+)\n", 8, "missing tests(…)"),
    ("ncm", "ncm m\nstates: s\n", 1, "missing `alphabet:` line"),
    ("ncm", "ncm m\nstates: s\nalphabet: a\ncounters: two\n", 4,
     "expected an integer in `counters:`, got 'two'"),
    ("ncm", "ncm m\nreversals: 1, x\n", 2, "expected an integer in `reversals:`, got 'x'"),
    ("ncm", f"ncm m\n{NCM}states: q\n", 8, "duplicate `states:` line"),
    ("ncm", "ncm m\nstates: s,,f\n", 2, "empty name in states list"),
    ("ncm", f"ncm m\n{NCM}trans: s, , a, tests(z) -> f, deltas(+)\n", 8,
     "empty name in transition list"),
    # `_` is the empty word on a right side and a silent move in a transition,
    # so it cannot be declared as a symbol
    ("grammar", "grammar g\nvariables: S, _\n", 2, "`_` cannot be declared in `variables:`"),
    ("grammar", "grammar g\nvariables: S\nterminals: _\n", 3,
     "`_` cannot be declared in `terminals:`"),
    ("grammar", "grammar g\nindices: f, _\n", 2, "`_` cannot be declared in `indices:`"),
    ("fsa", "fsa d\nstates: q\nalphabet: a, _\n", 3, "`_` cannot be declared in `alphabet:`"),
    ("morphism", "morphism h\ntarget: _\n", 2, "`_` cannot be declared in `target:`"),
    ("etol", "etol e\naxiom: S\nterminals: a, _\n", 3, "`_` cannot be declared in `terminals:`"),
    ("etol", "etol e\naxiom: _\n", 2, "`_` cannot be declared in `axiom:`"),
    ("etol", f"etol e\n{ETOL}table t:\nrule: _ -> a\n", 5, "`_` cannot be declared in `rule:`"),
    ("ncm", "ncm m\nstates: s\nalphabet: _\n", 3, "`_` cannot be declared in `alphabet:`"),
]


@pytest.mark.parametrize("kind,text,line,message", ROWS,
                         ids=[f"{r[0]}-{r[1]!r}" for r in ROWS])
def test_parse_error(kind, text, line, message):
    with pytest.raises(ParseError) as err:
        PARSERS[kind](text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}, col 0: {message}"


# -- parse(serialize(x)) == x -------------------------------------------------------------

NAMES = st.text("abcxyz012", min_size=1, max_size=3).filter(lambda s: s[0].isalpha())


@st.composite
def automata(draw):
    states = draw(st.lists(NAMES.map(lambda s: "q" + s), min_size=1, max_size=4, unique=True))
    alphabet = draw(st.lists(NAMES, max_size=3, unique=True))
    label = st.sampled_from([None, *alphabet])
    transitions = draw(st.lists(
        st.tuples(st.sampled_from(states), label, st.sampled_from(states)), max_size=6))
    return Nfa(
        states=tuple(states),
        alphabet=tuple(alphabet),
        initial=draw(st.sampled_from(states)),
        accepting=frozenset(draw(st.lists(st.sampled_from(states), max_size=3))),
        transitions=tuple(transitions),
        name=draw(NAMES),
    )


@given(automata())
def test_fsa_round_trip(nfa):
    back = parse_fsa(serialize_fsa(nfa))
    assert back == nfa and back.name == nfa.name


@st.composite
def slsets(draw):
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 4)] * dim)
    comps = draw(st.lists(st.builds(LinearSet.make, vec, st.lists(vec, max_size=3)), max_size=3))
    shape = draw(st.none() | st.builds(
        GinsburgShape, st.tuples(*[st.lists(NAMES, min_size=1, max_size=3).map(tuple)] * dim)))
    return draw(NAMES), shape, SemilinearSet(dim, tuple(comps))


@given(slsets())
def test_slset_round_trip(x):
    _, shape, _ = x
    if shape is not None and any(len(w) == 1 and len(w[0]) > 1 for w in shape.words):
        # a plain token is one letter per character, so a word that is a
        # single longer letter has no spelling
        with pytest.raises(GrammarError):
            serialize_slset(*x)
        return
    assert parse_slset(serialize_slset(*x)) == x


# -- mutated fixtures through the command line --------------------------------------------

# The cheapest command of each format, with the mutated file in place of {path}.
COMMANDS = {
    "anbn.ig": ["validate", "{path}"],
    "ramp.ig": ["validate", "{path}"],
    "dollar.fsa": ["transform", "intersect-dfa", "fixture:twin.ig", "{path}", "--out", "{out}"],
    "axy.map": ["transform", "morph", "fixture:anbn.ig", "{path}", "--out", "{out}"],
    "twin.sls": ["slset", "empty", "{path}"],
    "abc.etol": ["etol", "check-anf", "{path}"],
    "anbn.ncm": ["ncm", "run", "{path}", "_"],
}
JUNK = ["_", ",", ":", "->", "x", "0", "2", "-1", "(", ")", "[+f]", "#"]


@st.composite
def mutated(draw, text):
    lines = text.splitlines()
    tokens = sorted({t for line in lines for t in line.split()}) + JUNK
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "drop colon", "replace"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "drop colon":
            lines[i] = lines[i].replace(":", "", 1)
        elif lines[i].split():
            toks = lines[i].split()
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(tokens))
            lines[i] = " ".join(toks)
        if not lines:
            break
    return "\n".join(lines) + "\n"


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, parse_report(out.getvalue()), err.getvalue()


@pytest.mark.parametrize("fixture", sorted(COMMANDS))
@settings(max_examples=40)
@given(data=st.data())
def test_mutated_fixtures_give_a_report(fixture, data):
    """Any edit of a fixture ends in a report and an exit code, never a
    traceback; a transform that succeeds writes a grammar that reads back."""
    text = data.draw(mutated(fixture_text(fixture)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, fixture)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        out = os.path.join(tmp, "out.ig")
        code, blocks, err = cli([a.format(path=path, out=out) for a in COMMANDS[fixture]])
        assert err == "" and code in (0, 1, 2, 3)
        assert len(blocks) == 1 and blocks[0]["status"]
        if code == 2:
            assert blocks[0]["error"]
        if COMMANDS[fixture][0] == "transform" and code == 0:
            assert cli(["validate", out])[0] == 0
