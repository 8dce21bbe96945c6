"""Batch command-line front end.

Every command prints a machine-readable report: `key: value` lines, blocks
separated by `---`. A report names the `command` and the digest of each input
(`input`, `input.2`), then the command's own fields, and ends with
`elapsed_s`, the seconds the answer took (reading and parsing the inputs not
counted), and then `status`. Paths starting with `fixture:` resolve to the
bundled fixture files.

Each command and subcommand is one row of TABLE: its help, its inputs with
the reader of each, its other arguments and budget caps, and a handler that
takes the parsed inputs and the arguments and returns the kind of its answer
and its fields (a command that only computes something answers PROVEN).
`main` reads the inputs, times the handler, emits the report and turns the
kind into the exit status through EXIT: 0 for proven (or success), 1 for
refuted (or violations), 3 for unknown, limited by the budget; 2 is an input
error: an unreadable file or argument, or a file that does not parse
(`validate` reports every problem this way), reported with no `elapsed_s`.

`import igkit.cli` loads the derivation core only (`grammar`, `search`,
`engine`, `kernel`), and no `dataclasses`. Every name taken from the other
layers (`automata`, `closure`, `counters`, `etol`, `semilinear` and, through
it, `vector_automata`) is a stand-in made by `_lazy`, so each layer loads on
the first command that runs it. The rows read argv: when its first words
name a row, `_read_args` reads the rest from that row's declarations, its
inputs, its args and its budget flags. argparse loads only for help, usage
errors and argv that names no row. An argv the reader cannot read plainly
(`-h`, `--`, an undeclared or `--flag=value` token, a value or positional
that starts with `-`, a missing or extra argument, a value its type refuses)
goes to that row's own argparse parser (`_row_parser`, built on first use),
which prints the help or raises the usage error; an argv that names no row
(no arguments, `-h` at the top or on a group, an unknown command) goes to
the parser of every command (`build_parser`). Handlers call readers and
layer functions as globals of this module, found when the command runs, so
a wrapper set on one of them sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import os
import sys
import time
import types

from . import fixture_path
from .engine import Budget, check_uncontrolled, enumerate_language, membership, min_index
from .grammar import (
    GrammarError,
    derivation_to_trace,
    parse_grammar,
    serialize_grammar,
    symbol_name_error,
)
from .search import FOUND, PROVEN, REFUTED, SWEPT, UNKNOWN


def _lazy(module: str, *names: str) -> tuple:
    """Stand-ins for the functions `names` of igkit's `module`: the first call
    of one imports the module and keeps what it then holds under that name,
    and every call forwards to that. Handlers call a stand-in as a global of
    this module, so a wrapper set on that global stays in place."""
    def stand_in(name):
        fn = None

        def call(*args, **kwargs):
            nonlocal fn
            if fn is None:
                fn = getattr(importlib.import_module(f"{__package__}.{module}"), name)
            return fn(*args, **kwargs)

        return call

    return tuple(stand_in(name) for name in names)


determinize, parse_fsa, serialize_fsa = _lazy("automata", "determinize", "parse_fsa",
                                              "serialize_fsa")
(NivatTransducer, intersect_dfa, inverse_morphism, inverse_projection, morphism_image,
 nivat_transduce, normalize_rhs, parse_morphism, union) = _lazy(
    "closure", "NivatTransducer", "intersect_dfa", "inverse_morphism", "inverse_projection",
    "morphism_image", "nivat_transduce", "normalize_rhs", "parse_morphism", "union")
expand_to_nfa, ncm_run, parikh_of_intersection, parse_ncm, serialize_ncm, to_one_reversal = _lazy(
    "counters", "expand_to_nfa", "ncm_run", "parikh_of_intersection", "parse_ncm",
    "serialize_ncm", "to_one_reversal")
check_anf, etol_enumerate, etol_to_indexed, parse_etol = _lazy(
    "etol", "check_anf", "etol_enumerate", "etol_to_indexed", "parse_etol")
(bounded_lang_subset, bounded_word_member, linear_to_grammar, parse_slset, parse_vector,
 semilinear_to_grammar, slset_empty, slset_equal, slset_member, slset_subset) = _lazy(
    "semilinear", "bounded_lang_subset", "bounded_word_member", "linear_to_grammar",
    "parse_slset", "parse_vector", "semilinear_to_grammar", "slset_empty", "slset_equal",
    "slset_member", "slset_subset")

EXIT = {PROVEN: 0, REFUTED: 1, UNKNOWN: 3}
ERROR = 2

# the `status:` each kind of answer reports: the kind itself for a decision,
# `ok` for a computation or an exact membership test, or the command's own word
VERDICT = {kind: kind for kind in EXIT}
OK = {PROVEN: "ok", REFUTED: "ok"}
OUTCOME = {PROVEN: "accepted", REFUTED: "rejected", UNKNOWN: "unknown"}
MIN_INDEX_STATUS = {PROVEN: "ok", REFUTED: "not-a-member", UNKNOWN: "unknown"}

_FIXTURES = str(fixture_path(""))


def _resolve(path: str) -> str:
    if path.startswith("fixture:"):
        return os.path.join(_FIXTURES, path[len("fixture:"):])
    return path


def _read(path: str) -> tuple[str, str]:
    """The text of a file, and its `input:` line: the path and the head of
    the SHA-256 of the file's bytes as stored."""
    with open(_resolve(path), "rb") as f:
        data = f.read()
    digest = hashlib.sha256(data).hexdigest()[:12]
    return data.decode("utf-8"), f"{path} sha256:{digest}"


def emit_report(fields: dict) -> None:
    sys.stdout.write("".join(f"{key}: {value}\n" for key, value in fields.items()) + "---\n")


def parse_report(text: str) -> list[dict]:
    blocks = []
    cur: dict = {}
    for line in text.splitlines():
        line = line.rstrip()
        if line == "---":
            if cur:
                blocks.append(cur)
            cur = {}
            continue
        if not line:
            continue
        key, _, value = line.partition(":")
        cur[key.strip()] = value.strip()
    if cur:
        blocks.append(cur)
    return blocks


def _budget(args) -> Budget:
    return Budget(
        max_steps=args.max_steps,
        max_width=getattr(args, "max_width", None),
        max_stack=getattr(args, "max_stack", None),
        hard_cap=args.hard_cap,
    )


def _stopped_by(stop: str) -> dict:
    """The `stopped_by:` line of a search that a cap cut short."""
    return {"stopped_by": stop} if stop not in (SWEPT, FOUND) else {}


def _swept(stop: str) -> dict:
    """The `exhausted:` line of a search (true when it swept), then `stopped_by:`."""
    return {"exhausted": str(stop == SWEPT).lower(), **_stopped_by(stop)}


def _word(text: str, alphabet) -> tuple[str, ...]:
    """A word argument: `_` is the empty word, spaces separate letters, and
    otherwise each character is a letter unless some letter is longer."""
    if text == "_":
        return ()
    if " " in text:
        return tuple(text.split())
    if all(len(t) == 1 for t in alphabet):
        return tuple(text)
    return (text,)


def _render_word(w) -> str:
    if not w:
        return "_"
    return " ".join(w) if any(len(s) > 1 for s in w) else "".join(w)


def _words(words) -> dict:
    return {"count": len(words), "words": ", ".join(_render_word(w) for w in words)}


def _witness(d) -> dict:
    return {} if d is None else {"witness": derivation_to_trace(d)}


def _decided(v, render=str) -> tuple:
    """The answer of a decision: its verdict, and its witness if it has one."""
    witness = {} if v.witness is None else {"witness": render(v.witness)}
    return v.kind, {"verdict": v.kind, **witness}


def _letter(text: str, flag: str) -> str:
    """A letter given in a flag: one a grammar file can declare."""
    letter = text.strip()
    err = symbol_name_error(letter)
    if err:
        raise UsageError(f"argument {flag}: {err}")
    return letter


def _letters(text: str, flag: str) -> tuple[str, ...]:
    """A comma list of distinct letters given in a flag."""
    letters = tuple(_letter(t, flag) for t in text.split(","))
    for i, letter in enumerate(letters):
        if letter in letters[:i]:
            raise UsageError(f"argument {flag}: letter {letter!r} is given twice")
    return letters


def _shaped(sls, path: str):
    """The name, shape and set of a `.sls` file that must have a `shape:` line."""
    name, shape, s = sls
    if shape is None:
        raise GrammarError(f"{path} has no `shape:` line")
    return name, shape, s


def _written(args, text: str, **fields) -> tuple:
    """Write `text` to --out; the answer of a command that writes a file."""
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)
    return PROVEN, {"out": args.out, **fields}


def _grammar_out(g, args) -> tuple:
    return _written(args, serialize_grammar(g), variables=len(g.variables),
                    productions=len(g.productions))


# ---------------------------------------------------------------------------
# handlers: each takes the parsed inputs and the arguments, and returns the
# kind of its answer and its report fields


def _enumerate(g, args) -> tuple:
    budget = _budget(args)
    res = enumerate_language(g, args.max_len, budget)
    return PROVEN, {"max_len": args.max_len, **_words(res.witness), **_swept(res.info["stop"]),
                    "caps": " ".join(budget.active_caps()), "forms": res.info["forms"]}


def _member(g, args) -> tuple:
    w = _word(args.word, g.terminals)
    v = membership(g, w, _budget(args), caps_exact=args.exhaustive)
    return v.kind, {"word": _render_word(w), "verdict": v.kind,
                    **_swept(v.info["stop"]), **_witness(v.witness)}


def _min_index(g, args) -> tuple:
    w = _word(args.word, g.terminals)
    v = min_index(g, w, _budget(args), caps_exact=args.exhaustive)
    fields = {"word": _render_word(w)}
    if v.is_proven:
        fields.update({"min_index": v.info["k"], **_witness(v.witness)})
    return v.kind, {**fields, **_stopped_by(v.info["stop"])}


def _check_uncontrolled(g, args) -> tuple:
    v = check_uncontrolled(g, args.k, _budget(args))
    fields = {"k": args.k, "verdict": v.kind, **_swept(v.info["stop"]), "forms": v.info["forms"]}
    if v.witness is not None:
        fields.update({"witness_width": v.witness.index(), **_witness(v.witness)})
    return v.kind, fields


def _inverse_projection(g, args) -> tuple:
    letters = _letters(args.letters, "--letters")
    for letter in letters:
        if letter in g.terminal_set:
            raise UsageError(f"argument --letters: {letter!r} is already a terminal")
    return _grammar_out(inverse_projection(g, g.terminals + letters), args)


def _transduce(g, rel, args) -> tuple:
    target = _letters(args.target, "--target")
    rename = None
    if args.rename:
        pairs = [pair.partition("=") for pair in args.rename.split(",")]
        if not all(eq for _, eq, _ in pairs):
            raise UsageError(f"argument --rename: expected tagged=final pairs, "
                             f"got {args.rename!r}")
        rename = tuple((_letter(tagged, "--rename"), _letter(final, "--rename"))
                       for tagged, _, final in pairs)
        for tagged, _ in rename:
            if tagged not in target:
                raise UsageError(f"argument --rename: tagged letter {tagged!r} "
                                 "is not in --target")
    tau = NivatTransducer(source=_letters(args.source, "--source"), target=target, rel=rel,
                          output_rename=rename)
    return _grammar_out(nivat_transduce(g, tau), args)


def _synth_linear(sls, args) -> tuple:
    name, shape, s = _shaped(sls, args.slset)
    if len(s.components) != 1:
        raise GrammarError("synth-linear needs exactly one linear component")
    return _grammar_out(linear_to_grammar(shape, s.components[0], name=name), args)


def _synth_semilinear(sls, args) -> tuple:
    name, shape, s = _shaped(sls, args.slset)
    return _grammar_out(semilinear_to_grammar(shape, s, name=name), args)


def _slset_member(sls, args) -> tuple:
    try:
        vector = parse_vector(args.vector)
    except ValueError as exc:
        raise UsageError(f"argument --vector: {exc}") from None
    got = slset_member(vector, sls[2])
    return PROVEN if got else REFUTED, {"vector": args.vector, "member": str(got).lower()}


def _bounded_member(sls, args) -> tuple:
    _, shape, s = _shaped(sls, args.slset)
    w = _word(args.word, [c for u in shape.words for c in u])
    got = bounded_word_member(w, shape, s)
    return PROVEN if got else REFUTED, {"word": _render_word(w), "member": str(got).lower()}


def _bounded_subset(sls, other, args) -> tuple:
    _, shape1, s1 = _shaped(sls, args.slset)
    _, shape2, s2 = _shaped(other, args.other)
    v = bounded_lang_subset(shape1, s1, shape2, s2, args.check_len)
    kind, fields = _decided(v, _render_word)
    return kind, {**fields, **v.info}


def _etol_enumerate(sys_, args) -> tuple:
    res = etol_enumerate(sys_, args.max_len, _budget(args))
    return PROVEN, {**_words(res.witness), **_swept(res.info["stop"])}


def _check_anf(sys_, args) -> tuple:
    problems = check_anf(sys_)
    return REFUTED if problems else PROVEN, {
        "violations": len(problems), **{f"violation.{i}": p for i, p in enumerate(problems)}}


def _ncm_run(m, args) -> tuple:
    w = _word(args.word, m.alphabet)
    v = ncm_run(m, w, counter_cap=args.counter_cap)
    return v.kind, {"word": _render_word(w), "outcome": OUTCOME[v.kind],
                    "configs": v.info["configs"], **_stopped_by(v.info["stop"])}


def _one_reversal(m, args) -> tuple:
    m1 = to_one_reversal(m)
    return _written(args, serialize_ncm(m1), counters=m1.num_counters, states=len(m1.states))


def _expand(m, args) -> tuple:
    nfa = expand_to_nfa(to_one_reversal(m))
    return _written(args, serialize_fsa(nfa), states=len(nfa.states))


def _parikh_intersect(m, g, args) -> tuple:
    sample = parikh_of_intersection(g, m, args.radius, enum_len=args.enum_len,
                                    budget=_budget(args))
    return PROVEN, {"radius": args.radius, "enum_len": sample.info["enum_len"],
                    **_swept(sample.info["stop"]),
                    "vectors": "; ".join(str(v) for v in sample.witness)}


# ---------------------------------------------------------------------------
# paper replication

# Each claim of the paper as igkit command lines, each with the values the
# last block of its report must show; `{out}` is a temporary directory, and
# `{out}/g.ig` the grammar the line before wrote.
PAPER_CLAIMS = [
    ("twin-enumeration", [
        ("enumerate fixture:twin.ig --max-len 14 --max-steps 60 --max-stack 3",
         {"exhausted": "true", "words": "$, abc$abc, aabbcc$aabbcc"})]),
    ("twin-synthesis", [
        ("synth-linear fixture:twin.sls --out {out}/g.ig", {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 14 --max-steps 60 --max-stack 3",
         {"exhausted": "true", "words": "$, abc$abc, aabbcc$aabbcc"})]),
    ("ramp-enumeration", [
        ("enumerate fixture:ramp.ig --max-len 13 --max-steps 120 --max-width 4 --max-stack 5",
         {"exhausted": "true", "words": "abaa, abaabaaa, abaabaaabaaaa"})]),
    ("ramp-min-index", [
        ("min-index fixture:ramp.ig abaa --max-steps 60 --max-stack 4", {"min_index": "3"})]),
    ("ramp-not-uncontrolled", [
        ("check-uncontrolled fixture:ramp.ig --k 3 --max-steps 60 --max-stack 5",
         {"verdict": "refuted"})]),
    ("union-closure", [
        ("transform union fixture:astar.ig fixture:bstar.ig --out {out}/g.ig", {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 5 --max-steps 30",
         {"exhausted": "true", "words": "_, a, b, aa, bb, aaa, bbb, aaaa, bbbb, aaaaa, bbbbb"})]),
    ("morphism-closure", [
        ("transform morph fixture:anbn.ig fixture:axy.map --out {out}/g.ig", {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 10 --max-steps 40",
         {"exhausted": "true", "words": "_, xy, xyxy, xyxyxy, xyxyxyxy, xyxyxyxyxy"})]),
    ("intersection-closure", [
        ("transform intersect-dfa fixture:twin.ig fixture:dollar.fsa --out {out}/g.ig",
         {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 14 --max-steps 200 --max-stack 3",
         {"exhausted": "true", "words": "abc$abc, aabbcc$aabbcc"})]),
    ("inverse-projection-closure", [
        ("transform inv-proj fixture:abword.ig --letters x --out {out}/g.ig", {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 4 --max-steps 60",
         {"exhausted": "true", "words": "ab, abx, axb, xab, abxx, axbx, axxb, xabx, xaxb, xxab"})]),
    ("etol-conversion", [
        ("etol enumerate fixture:anbn1.etol --max-len 8 --max-steps 20",
         {"exhausted": "true", "words": "_, ab, aabb, aaabbb, aaaabbbb"}),
        ("etol convert fixture:anbn1.etol --out {out}/g.ig", {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 8 --max-steps 120 --max-stack 8 --max-width 3",
         {"exhausted": "true", "words": "_, ab, aabb, aaabbb, aaaabbbb"})]),
    ("ncm-acceptance", [
        ("ncm run fixture:anbn.ncm aabb", {"outcome": "accepted"}),
        ("ncm run fixture:anbn.ncm aab", {"outcome": "rejected"})]),
    ("ncm-counting", [
        ("ncm parikh-intersect fixture:anbn.ncm fixture:sigmastar_ab.ig --radius 4 "
         "--max-steps 400 --max-width 6",
         {"exhausted": "true", "vectors": "(0, 0); (1, 1); (2, 2)"})]),
    ("slset-decisions", [
        ("slset subset fixture:diag.sls fixture:quadrant.sls", {"verdict": "proven"}),
        ("slset subset fixture:quadrant.sls fixture:diag.sls", {"verdict": "refuted"})]),
    ("bounded-membership", [
        ("bounded member fixture:twin.sls abc$abc", {"member": "true"}),
        ("bounded member fixture:twin.sls abc$ac", {"member": "false"})]),
]


def _claim_error(lines, out: str) -> str | None:
    """Run a claim's lines through `main` in order. Returns why the first
    failing line fails (its input error, or a value its report lacks), or
    None when every line shows its values."""
    for line, want in lines:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            main([arg.format(out=out) for arg in line.split()])
        report = parse_report(text.getvalue())[-1]
        if report.get("status") == "error":
            return report["error"]
        for key, value in want.items():
            if report.get(key) != value:
                return f"igkit {line}: {key}: {report.get(key)}, want {value}"
    return None


def _replicate(args) -> tuple:
    """One `check:` block per claim, then the count of the claims that fail."""
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory() as out:
        for name, lines in PAPER_CLAIMS:
            try:
                error = _claim_error(lines, out)
            except Exception as exc:  # a defect that escaped `main`: report it, run the rest
                error = f"{type(exc).__name__}: {exc}"
            check = {"check": name, "result": "pass" if error is None else "fail"}
            emit_report(check if error is None else {**check, "error": error})
            failures += error is not None
    return REFUTED if failures else PROVEN, {"checks": len(PAPER_CLAIMS), "failures": failures}


# ---------------------------------------------------------------------------
# the command table


class UsageError(ValueError):
    """A command line that does not parse: `main` reports it as an input error."""


class _Help(Exception):
    """`-h` printed the help: `main` returns 0."""


@functools.cache
def _parser_class():
    """argparse's parser with every flag exact, whose usage errors raise
    UsageError and whose `-h` raises _Help. argparse loads on the first call."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # the subparsers are built from the same class, so their errors end here too,
        # and every flag is exact (`add_parser` does not pass `allow_abbrev` on)
        def __init__(self, *args, **kwargs):
            super().__init__(*args, allow_abbrev=False, **kwargs)

        def error(self, message):
            raise UsageError(f"{self.prog}: {message}")

        def exit(self, status=0, message=None):  # only `-h` exits
            raise _Help

    return Parser


def _count(text: str, least: int = 0) -> int:
    """An integer argument of at least `least`."""
    try:
        n = int(text)
    except ValueError:
        problem = f"invalid int value: {text!r}"
    else:
        if n >= least:
            return n
        problem = f"must be >= {least}: {n}"
    import argparse  # a refused value is read again by argparse, which reports this

    raise argparse.ArgumentTypeError(problem)


def _budget_flags(steps, *caps) -> tuple:
    """--max-steps, a --max-<cap> flag for each cap the command honors
    (`width`, `stack`), and --hard-cap, as a row declares its arguments."""
    return (("--max-steps", {"type": _count, "default": steps}),
            *((f"--max-{cap}", {"type": _count, "default": None}) for cap in caps),
            ("--hard-cap", {"type": _count, "default": Budget.hard_cap}))


class _Row:
    """A command: its help; its inputs, each (argument, name of the global of
    this module that parses the file's text); its other arguments, each
    (name, keywords of `add_argument`), ending with the flags of its budget,
    (--max-steps default, caps...), if it has one; its handler; and the
    `status:` of each kind. `_read_args` reads the same arguments through
    `places`, the positionals in order, `flags`, each flag's (dest,
    keywords), and `defaults`, each flag's value when it is not given."""

    __slots__ = ("help", "inputs", "args", "run", "status", "places", "flags", "defaults")

    def __init__(self, text, inputs, run, *args, budget=None, status=OK):
        args += _budget_flags(*budget) if budget else ()
        self.help, self.inputs, self.run, self.args, self.status = text, inputs, run, args, status
        self.places = tuple(arg for arg, _ in inputs) + tuple(a for a, _ in args if a[0] != "-")
        self.flags = {a: (a[2:].replace("-", "_"), kw) for a, kw in args if a[0] == "-"}
        self.defaults = {
            dest: kw.get("default", False if kw.get("action") == "store_true" else None)
            for dest, kw in self.flags.values()}


GRAMMAR = (("grammar", "parse_grammar"),)
SLSET = (("slset", "parse_slset"),)
SYSTEM = (("system", "parse_etol"),)
MACHINE = (("machine", "parse_ncm"),)
WORD = ("word", {})
OUT = ("--out", {"required": True})
MAX_LEN = ("--max-len", {"type": _count, "required": True})
SEARCH = (400, "width", "stack")

TABLE = {
    # reading the input raises a ParseError listing every problem `validate` finds
    "validate": _Row("check a grammar file", GRAMMAR, lambda g, args: (PROVEN, {"violations": 0})),
    "enumerate": _Row("list generated words up to a length", GRAMMAR, _enumerate, MAX_LEN,
                      budget=SEARCH),
    "member": _Row("search for a derivation of a word", GRAMMAR, _member, WORD, (
        "--exhaustive", {"action": "store_true",
                         "help": "caller asserts the width/stack caps cover every derivation"}),
        budget=SEARCH, status=VERDICT),
    "min-index": _Row("smallest derivation width for a word", GRAMMAR, _min_index, WORD,
                      ("--exhaustive", {"action": "store_true"}), budget=SEARCH,
                      status=MIN_INDEX_STATUS),
    "check-uncontrolled": _Row("look for wide successful derivations", GRAMMAR,
                               _check_uncontrolled,
                               ("--k", {"type": lambda text: _count(text, 1), "required": True}),
                               budget=(400, "stack"), status=VERDICT),
    "transform union": _Row("a grammar for the union of two languages",
                            GRAMMAR + (("other", "parse_grammar"),),
                            lambda g, h, args: _grammar_out(union(g, h), args), OUT),
    "transform morph": _Row("a grammar for the image under a morphism",
                            GRAMMAR + (("morphism", "parse_morphism"),),
                            lambda g, h, args: _grammar_out(morphism_image(g, h), args), OUT),
    "transform inv-morph": _Row("a grammar for the inverse image under a morphism",
                                GRAMMAR + (("morphism", "parse_morphism"),),
                                lambda g, h, args: _grammar_out(inverse_morphism(g, h), args),
                                OUT),
    "transform normalize": _Row("the grammar with right sides u, uXv or uXZ", GRAMMAR,
                                lambda g, args: _grammar_out(normalize_rhs(g), args), OUT),
    "transform intersect-dfa": _Row(
        "a grammar for the intersection with an automaton's language",
        GRAMMAR + (("fsa", "parse_fsa"),),
        lambda g, nfa, args: _grammar_out(intersect_dfa(normalize_rhs(g), determinize(nfa)),
                                          args), OUT),
    "transform inv-proj": _Row("a grammar for the words with new letters inserted anywhere",
                               GRAMMAR, _inverse_projection,
                               ("--letters", {"required": True,
                                              "help": "comma-separated new letters"}), OUT),
    "transform transduce": _Row(
        "a grammar for the image under a Nivat transducer", GRAMMAR + (("fsa", "parse_fsa"),),
        _transduce, ("--source", {"required": True}), ("--target", {"required": True}),
        ("--rename", {"default": None, "help": "comma-separated tagged=final pairs"}), OUT),
    "synth-linear": _Row("grammar for one linear component", SLSET, _synth_linear, OUT),
    "synth-semilinear": _Row("grammar for a semilinear set", SLSET, _synth_semilinear, OUT),
    "slset member": _Row("is a vector in the set", SLSET, _slset_member,
                         ("--vector", {"required": True})),
    "slset subset": _Row("is the first set in the second", SLSET + (("other", "parse_slset"),),
                         lambda s, t, args: _decided(slset_subset(s[2], t[2])), status=VERDICT),
    "slset equal": _Row("are the two sets equal", SLSET + (("other", "parse_slset"),),
                        lambda s, t, args: _decided(slset_equal(s[2], t[2])), status=VERDICT),
    "slset empty": _Row("is the set empty", SLSET, lambda s, args: _decided(slset_empty(s[2])),
                        status=VERDICT),
    "bounded member": _Row("is a word in the bounded language", SLSET, _bounded_member, WORD),
    "bounded subset": _Row("is the first bounded language in the second",
                           SLSET + (("other", "parse_slset"),), _bounded_subset,
                           ("--check-len", {"type": _count, "default": 20}), status=VERDICT),
    "etol enumerate": _Row("list generated words up to a length", SYSTEM, _etol_enumerate,
                           MAX_LEN, budget=(30, "width")),
    "etol check-anf": _Row("list the violations of active normal form", SYSTEM, _check_anf,
                           status={PROVEN: "ok", REFUTED: "invalid"}),
    "etol convert": _Row("an indexed grammar for the same language", SYSTEM,
                         lambda s, args: _grammar_out(etol_to_indexed(s), args), OUT),
    "ncm run": _Row("run the machine on a word", MACHINE, _ncm_run, WORD, (
        "--counter-cap", {"type": _count, "help": "largest counter value (default 2|w|+4)"}),
        status=OUTCOME),
    "ncm one-reversal": _Row("an equivalent machine whose counters reverse once", MACHINE,
                             _one_reversal, OUT),
    "ncm expand": _Row("an automaton that shows the counters' moves as letters", MACHINE,
                       _expand, OUT),
    "ncm parikh-intersect": _Row(
        "Parikh vectors of the grammar's words the machine accepts",
        MACHINE + GRAMMAR, _parikh_intersect, ("--radius", {"type": _count, "required": True}),
        ("--enum-len", {"type": _count, "default": None}), budget=(600, "width", "stack")),
    "replicate-paper": _Row("run the bundled fixture suite", (), _replicate,
                            status={PROVEN: "ok", REFUTED: "fail"}),
}
# the commands with subcommands, and their help
GROUPS = {
    "transform": "grammar-to-grammar constructions",
    "slset": "semilinear set decisions",
    "bounded": "bounded-language decisions",
    "etol": "parallel rewriting systems",
    "ncm": "reversal-bounded counter machines",
}
COMMANDS = tuple(dict.fromkeys(name.partition(" ")[0] for name in TABLE))


def _row_parser(name: str, p=None):
    """`p` with the arguments of the row `name`: a subparser of build_parser,
    or by default a parser of that row alone, which prints the same help."""
    row = TABLE[name]
    if p is None:
        p = _parser_class()(prog=f"igkit {name}")
    for arg, _ in row.inputs:
        p.add_argument(arg)
    for arg, kwargs in row.args:
        p.add_argument(arg, **kwargs)
    p.set_defaults(row=(name, row))
    return p


def build_parser():
    """The parser of every command."""
    ap = _parser_class()(
        prog="igkit",
        description="workbench for grammars whose variables carry index stacks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for name, row in TABLE.items():
        top, _, op = name.partition(" ")
        if not op:
            p = sub.add_parser(name, help=row.help)
        else:
            if top not in groups:  # no dest: a missing subcommand is reported by its choices
                groups[top] = sub.add_parser(top, help=GROUPS[top]).add_subparsers(required=True)
            p = groups[top].add_parser(op, help=row.help)
        _row_parser(name, p)
    return ap


@functools.cache  # built on the first call of `main` that needs it, reused by later ones
def _parser(name=None):
    """The parser of the row `name` alone, or of every command."""
    return build_parser() if name is None else _row_parser(name)


def _read_args(name: str, words: list[str]):
    """The arguments `words` give the row `name`, as its parser would read
    them, or None for words that only that parser reads: `-h`, `--`, an
    undeclared or `--flag=value` token, a value or positional that starts
    with `-`, a missing value or argument, an extra positional, or a value
    its type refuses. A flag given twice keeps its last value."""
    row = TABLE[name]
    got = {}
    places = iter(row.places)
    words = iter(words)
    for word in words:
        if not word.startswith("-"):
            place = next(places, None)
            if place is None:
                return None
            got[place] = word
            continue
        flag = row.flags.get(word)
        if flag is None:
            return None
        dest, kwargs = flag
        if kwargs.get("action") == "store_true":
            got[dest] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        try:
            got[dest] = kwargs.get("type", str)(value)
        except Exception:  # the parser calls the type again and reports its error
            return None
    if next(places, None) is not None or any(
            kwargs.get("required") and dest not in got for dest, kwargs in row.flags.values()):
        return None
    return types.SimpleNamespace(**{**row.defaults, **got}, row=(name, row))


def _parse(argv: list[str]):
    """The arguments of `argv`. When its first words name a row, the rest is
    read by `_read_args`, or, where that cannot read it, by the row's own
    parser, which prints the help or raises the usage error; an argv that
    names none (no arguments, `-h` at the top or on a group, an unknown
    command) goes to the parser of every command."""
    if argv and argv[0] in COMMANDS:
        n = 2 if argv[0] in GROUPS else 1
        name = " ".join(argv[:n])
        if name in TABLE:
            args = _read_args(name, argv[n:])
            if args is not None:
                return args
            args, extra = _parser(name).parse_known_args(argv[n:])
            if extra:  # reported as the parser of every command reports them
                raise UsageError(f"igkit: unrecognized arguments: {' '.join(extra)}")
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        name, row = args.row
        report = {"command": name}
        inputs = []
        for key, (arg, reader) in zip(("input", "input.2"), row.inputs):
            text, report[key] = _read(getattr(args, arg))
            inputs.append(globals()[reader](text))
        t0 = time.monotonic()
        kind, fields = row.run(*inputs, args)
        report.update(fields)
        report["elapsed_s"] = f"{time.monotonic() - t0:.3f}"
        report["status"] = row.status[kind]
        emit_report(report)
        return EXIT[kind]
    except _Help:
        return 0
    except (GrammarError, OSError, ValueError) as exc:
        emit_report({
            "command": argv[0] if argv else "igkit",
            "error": f"{type(exc).__name__}: {exc}",
            "status": "error",
        })
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
