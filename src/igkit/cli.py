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
the first command that runs it. The rows read argv, with no argparse:
`_parse` walks the menus (the commands, a group's subcommands) to a row, and
`_read_args` reads the rest from that row's inputs, args and budget flags as
argparse would, with its usage-error texts; -h prints a help built from the
row or the menu. Handlers call readers and layer functions as globals of
this module, found when the command runs, so a wrapper set on one of them
sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import re
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
    return os.path.join(_FIXTURES, path[8:]) if path.startswith("fixture:") else path


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
    """The blocks of a report, each {key: value} of its `key: value` lines."""
    blocks: list = [[]]
    for line in text.splitlines():
        if line.rstrip() == "---":
            blocks.append([])
        elif line.strip():
            blocks[-1].append(line.partition(":"))
    return [{key.strip(): value.strip() for key, _, value in b} for b in blocks if b]


def _budget(args) -> Budget:
    return Budget(max_steps=args.max_steps, max_width=getattr(args, "max_width", None),
                  max_stack=getattr(args, "max_stack", None), hard_cap=args.hard_cap)


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


def _words(words, alphabet) -> dict:
    """A word list as `_word` reads each word back: `_` for the empty word,
    and letters joined with spaces when some letter of `alphabet` is longer
    than one character, so `a b` and `ab` stay apart."""
    space = " " if any(len(t) > 1 for t in alphabet) else ""
    return {"count": len(words), "words": ", ".join(space.join(w) or "_" for w in words)}


def _render_word(w, alphabet) -> str:
    return _words([w], alphabet)["words"]


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
    return PROVEN, {"max_len": args.max_len, **_words(res.witness, g.terminals),
                    **_swept(res.info["stop"]), "caps": " ".join(budget.active_caps()),
                    "forms": res.info["forms"]}


def _member(g, args) -> tuple:
    w = _word(args.word, g.terminals)
    v = membership(g, w, _budget(args), caps_exact=args.exhaustive)
    return v.kind, {"word": _render_word(w, g.terminals), "verdict": v.kind,
                    **_swept(v.info["stop"]), **_witness(v.witness)}


def _min_index(g, args) -> tuple:
    w = _word(args.word, g.terminals)
    v = min_index(g, w, _budget(args), caps_exact=args.exhaustive)
    fields = {"word": _render_word(w, g.terminals)}
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
    w = _word(args.word, shape.letters)
    got = bounded_word_member(w, shape, s)
    return PROVEN if got else REFUTED, {"word": _render_word(w, shape.letters),
                                        "member": str(got).lower()}


def _bounded_subset(sls, other, args) -> tuple:
    _, shape1, s1 = _shaped(sls, args.slset)
    _, shape2, s2 = _shaped(other, args.other)
    v = bounded_lang_subset(shape1, s1, shape2, s2, args.check_len)
    kind, fields = _decided(v, lambda w: _render_word(w, shape1.letters))
    return kind, {**fields, **v.info}


def _etol_enumerate(sys_, args) -> tuple:
    res = etol_enumerate(sys_, args.max_len, _budget(args))
    return PROVEN, {**_words(res.witness, sys_.terminals), **_swept(res.info["stop"])}


def _check_anf(sys_, args) -> tuple:
    problems = check_anf(sys_)
    return REFUTED if problems else PROVEN, {
        "violations": len(problems), **{f"violation.{i}": p for i, p in enumerate(problems)}}


def _ncm_run(m, args) -> tuple:
    w = _word(args.word, m.alphabet)
    v = ncm_run(m, w, counter_cap=args.counter_cap)
    return v.kind, {"word": _render_word(w, m.alphabet), "outcome": OUTCOME[v.kind],
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


def _count(text: str, least: int = 0) -> int:
    """An integer argument of at least `least`."""
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if n < least:
        raise ValueError(f"must be >= {least}: {n}")
    return n


def _budget_flags(steps, *caps) -> tuple:
    """--max-steps, a --max-<cap> flag for each cap the command honors
    (`width`, `stack`), and --hard-cap, as a row declares its arguments."""
    return (("--max-steps", {"type": _count, "default": steps}),
            *((f"--max-{cap}", {"type": _count, "default": None}) for cap in caps),
            ("--hard-cap", {"type": _count, "default": Budget.hard_cap}))


class _Row:
    """A command: its help; its inputs, each (argument, name of the global of
    this module that parses the file's text); its other arguments, each (name,
    keywords: `type`, `default`, `required`, `action` store_true, `help`),
    then its budget flags, (--max-steps default, caps...); its handler; and
    the `status:` of each kind. `_read_args` reads them through `places`, the
    positionals in order, `flags`, each flag's (dest, keywords), `defaults`."""

    __slots__ = ("help", "inputs", "args", "run", "status", "places", "flags", "defaults")

    def __init__(self, text, inputs, run, *args, budget=None, status=OK):
        args += _budget_flags(*budget) if budget else ()
        self.help, self.inputs, self.run, self.args, self.status = text, inputs, run, args, status
        self.places = tuple(arg for arg, _ in inputs) + tuple(a for a, _ in args if a[0] != "-")
        self.flags = {a: (a[2:].replace("-", "_"), kw) for a, kw in args if a[0] == "-"}
        self.defaults = {dest: kw.get("default", False if "action" in kw else None)
                         for dest, kw in self.flags.values() if not kw.get("required")}


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
# the help of each menu, the commands ("") or a group's subcommands; MENUS: its choices
GROUPS = {
    "": "workbench for grammars whose variables carry index stacks",
    "transform": "grammar-to-grammar constructions",
    "slset": "semilinear set decisions",
    "bounded": "bounded-language decisions",
    "etol": "parallel rewriting systems",
    "ncm": "reversal-bounded counter machines",
}
MENUS = {group: tuple(dict.fromkeys(name.split()[bool(group)] for name in TABLE
                                    if not group or name.split()[0] == group)) for group in GROUPS}
# -h and --help: a flag that takes no value, whose (dest, keywords) has no dest
HELP = dict.fromkeys(("-h", "--help"), (None, {"action": "help"}))
_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _option(word: str, flags):
    """How argparse reads `word` where `flags` and -h are declared: None for
    a value or a positional (`-1`, `-`, a word with a space), else the flag
    and its value given after `=` or None; the flag is None when undeclared."""
    if word[:1] != "-":
        return None
    if word in flags or word in HELP:
        return word, None
    flag, eq, value = word.partition("=")
    if not (eq and (flag in flags or flag in HELP)):
        if word[1:2] != "h":
            return None if word == "-" or _NUMBER.match(word) or " " in word else (None, None)
        flag, value = "-h", word[2:]
    if flag == "-h" and value:  # -hx is -h given x, and -hhx is -h, then -hx
        value = value.lstrip("h") or None
    return flag, value


def _help(prog: str, usage, text: str, lines) -> None:
    """Print a help: the usage line, the text, then each (argument, what it is)."""
    sys.stdout.write(f"usage: {prog} [-h] {' '.join(usage)}\n\n{text}\n\n"
                     + "".join(f"  {arg:<24}{what}".rstrip() + "\n" for arg, what in lines))


def _read_args(name: str, words: list[str], extras: list):
    """The arguments `words` give the row `name`, read as argparse reads them:
    positionals in turn (every row declares them first), a declared flag with
    the word after it or its `=value` (the last one wins), `--` ending the
    flags, then defaults. Other words go to `extras`. None when -h printed the
    help: the row's text, and each input and arg with its help and default."""
    row, prog = TABLE[name], f"igkit {name}"
    places, got, dash, took, i = list(row.places), {}, False, False, 0
    while i < len(words):
        word, i = words[i], i + 1
        if word == "--" and not dash:  # read with the positional beside it, if any
            dash = True
            if not (took or places and i < len(words)):
                extras.append(word)
            continue
        opt = None if dash or word[:1] != "-" else _option(word, row.flags)
        took = opt is None and bool(places)
        if opt is None or opt[0] is None:
            if took:
                got[places.pop(0)] = word
            else:
                extras.append(word)
            continue
        flag, value = opt
        dest, kw = row.flags.get(flag) or HELP[flag]
        if "action" in kw and value is not None:
            raise UsageError(f"{prog}: argument {flag if dest else '-h/--help'}: "
                             f"ignored explicit argument {value!r}")
        if dest is None:
            shown = [(a if a[0] != "-" or "action" in kw else f"{a} {row.flags[a][0].upper()}",
                     a[0] != "-" or kw.get("required"), kw.get("help", "") + (
                         "" if kw.get("default") is None else f" (default: {kw['default']})"))
                    for a, kw in (*((a, {}) for a, _ in row.inputs), *row.args)]
            return _help(prog, [a if must else f"[{a}]" for a, must, _ in shown], row.help,
                         [(a, what) for a, _, what in shown])
        if value is None and "action" not in kw:
            if i == len(words) or words[i][:1] == "-" and _option(words[i], row.flags):
                raise UsageError(f"{prog}: argument {flag}: expected one argument")
            value, i = words[i], i + 1
        try:  # a store_true flag has no value
            got[dest] = True if value is None else kw.get("type", str)(value)
        except ValueError as exc:
            raise UsageError(f"{prog}: argument {flag}: {exc}") from None
    args = {**row.defaults, **got}  # a required flag has no default
    if len(args) < len(row.places) + len(row.flags):
        missing = places + [flag for flag, (dest, _) in row.flags.items() if dest not in args]
        raise UsageError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    return types.SimpleNamespace(**args, row=(name, row))


def _parse(argv: list[str]):
    """The arguments of `argv`, read as argparse reads them: a menu (the
    commands, a group's subcommands) reads -h and undeclared flags up to its
    first other word, one of its choices, and the row that names reads the
    rest (`_read_args`). None when -h printed a help."""
    menu, words, extras = "", list(argv), []
    while menu in MENUS:
        prog, choices, i = f"igkit {menu}".rstrip(), MENUS[menu], 0
        while i < len(words) and words[i] != "--" and (opt := _option(words[i], ())):
            if opt[1] is not None:
                raise UsageError(f"{prog}: argument -h/--help: "
                                 f"ignored explicit argument {opt[1]!r}")
            if opt[0] is not None:
                return _help(prog, ["{%s}" % ",".join(choices), "..."], GROUPS[menu], [
                    (c, getattr(TABLE.get(f"{menu} {c}".lstrip()), "help", GROUPS.get(c)))
                    for c in choices])
            extras.append(words[i])
            i += 1
        if i == len(words) or words[i] not in choices:
            dest = "{%s}" % ",".join(choices) if menu else "command"
            if words[i:] in ([], ["--"]):
                raise UsageError(f"{prog}: the following arguments are required: {dest}")
            raise UsageError(f"{prog}: argument {dest}: invalid choice: {words[i]!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        menu, words = f"{menu} {words[i]}".lstrip(), words[i + 1:]
    args = _read_args(menu, words, extras)
    if args is not None and extras:
        raise UsageError(f"igkit: unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if args is None:  # -h printed a help
            return 0
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
    except (GrammarError, OSError, ValueError) as exc:
        emit_report({"command": argv[0] if argv else "igkit",
                     "error": f"{type(exc).__name__}: {exc}", "status": "error"})
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
