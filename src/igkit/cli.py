"""Batch command-line front end.

Every command prints a machine-readable report: `key: value` lines, blocks
separated by `---`. Every command handler returns the kind of its answer,
and `main` turns it into the exit status through EXIT: 0 for proven (or
success), 1 for refuted (or violations), 3 for unknown, limited by the
budget; 2 is an input error: an unreadable file or argument, or a file that
does not parse (`validate` reports every problem this way). Paths starting
with `fixture:` resolve to the bundled fixture files.

`import igkit.cli` loads the derivation core only (`grammar`, `search`,
`engine`, `kernel`), and no `dataclasses`. Every name taken from the other
layers (`automata`, `closure`, `counters`, `etol`, `semilinear` and, through
it, `vector_automata`) is a stand-in made by `_lazy`, so each layer loads on
the first command that runs it; `main` builds only that command's parser.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import sys
import tempfile
import time
from pathlib import Path

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

# how `ncm run` and `min-index` word the kind of their answer
OUTCOME = {PROVEN: "accepted", REFUTED: "rejected", UNKNOWN: "unknown"}
MIN_INDEX_STATUS = {PROVEN: "ok", REFUTED: "not-a-member", UNKNOWN: "unknown"}


def _resolve(path: str) -> Path:
    if path.startswith("fixture:"):
        return fixture_path(path[len("fixture:"):])
    return Path(path)


def _read(path: str) -> tuple[str, str]:
    p = _resolve(path)
    text = p.read_text(encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return text, f"{path} sha256:{digest}"


def emit_report(fields: dict) -> None:
    for key, value in fields.items():
        print(f"{key}: {value}")
    print("---")


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


def _write_grammar(g, out: str) -> None:
    Path(out).write_text(serialize_grammar(g), encoding="utf-8")


# ---------------------------------------------------------------------------
# command handlers (each returns the kind of its answer; a command that only
# computes something answers PROVEN)


def cmd_validate(args) -> str:
    text, digest = _read(args.grammar)
    parse_grammar(text)  # raises a ParseError listing every problem `validate` finds
    emit_report({"command": "validate", "input": digest, "violations": 0, "status": "ok"})
    return PROVEN


def cmd_enumerate(args) -> str:
    text, digest = _read(args.grammar)
    g = parse_grammar(text)
    t0 = time.monotonic()
    res = enumerate_language(g, args.max_len, _budget(args))
    emit_report({
        "command": "enumerate",
        "input": digest,
        "max_len": args.max_len,
        "count": len(res.words),
        "words": ", ".join(_render_word(w) for w in res.words),
        "exhausted": str(res.exhausted).lower(),
        **_stopped_by(res.stop),
        "caps": " ".join(res.active_caps),
        "forms": res.forms_seen,
        "elapsed_s": f"{time.monotonic() - t0:.3f}",
        "status": "ok",
    })
    return PROVEN


def cmd_member(args) -> str:
    text, digest = _read(args.grammar)
    g = parse_grammar(text)
    w = _word(args.word, g.terminals)
    t0 = time.monotonic()
    v = membership(g, w, _budget(args), caps_exact=args.exhaustive)
    fields = {
        "command": "member",
        "input": digest,
        "word": _render_word(w),
        "verdict": v.kind,
        "exhausted": str(v.info["exhausted"]).lower(),
        **_stopped_by(v.info["stop"]),
        "elapsed_s": f"{time.monotonic() - t0:.3f}",
        "status": v.kind,
    }
    if v.witness is not None:
        fields["witness"] = derivation_to_trace(g, v.witness).replace("\n", " ; ")
    emit_report(fields)
    return v.kind


def cmd_min_index(args) -> str:
    text, digest = _read(args.grammar)
    g = parse_grammar(text)
    w = _word(args.word, g.terminals)
    t0 = time.monotonic()
    v = min_index(g, w, _budget(args), caps_exact=args.exhaustive)
    fields = {"command": "min-index", "input": digest, "word": _render_word(w)}
    if v.is_proven:
        fields.update({
            "min_index": v.info["k"],
            "witness": derivation_to_trace(g, v.witness).replace("\n", " ; "),
            "elapsed_s": f"{time.monotonic() - t0:.3f}",
        })
    emit_report({**fields, **_stopped_by(v.info["stop"]), "status": MIN_INDEX_STATUS[v.kind]})
    return v.kind


def cmd_check_uncontrolled(args) -> str:
    text, digest = _read(args.grammar)
    g = parse_grammar(text)
    t0 = time.monotonic()
    v = check_uncontrolled(g, args.k, _budget(args))
    fields = {
        "command": "check-uncontrolled",
        "input": digest,
        "k": args.k,
        "verdict": v.kind,
        "exhausted": str(v.info["exhausted"]).lower(),
        **_stopped_by(v.info["stop"]),
        "forms": v.info["forms"],
        "elapsed_s": f"{time.monotonic() - t0:.3f}",
        "status": v.kind,
    }
    if v.witness is not None:
        fields["witness_width"] = v.witness.index()
        fields["witness"] = derivation_to_trace(g, v.witness).replace("\n", " ; ")
    emit_report(fields)
    return v.kind


def cmd_transform(args) -> str:
    t0 = time.monotonic()
    text, digest = _read(args.grammar)
    g = parse_grammar(text)
    inputs = {"input": digest}
    kind = args.transform_kind

    def second(path: str) -> str:  # the text of the second input
        text2, inputs["input.2"] = _read(path)
        return text2

    if kind == "union":
        out = union(g, parse_grammar(second(args.other)))
    elif kind == "morph":
        out = morphism_image(g, parse_morphism(second(args.morphism)))
    elif kind == "inv-morph":
        out = inverse_morphism(g, parse_morphism(second(args.morphism)))
    elif kind == "normalize":
        out = normalize_rhs(g)
    elif kind == "intersect-dfa":
        nfa = parse_fsa(second(args.fsa))
        out = intersect_dfa(normalize_rhs(g), determinize(nfa))
    elif kind == "inv-proj":
        letters = _letters(args.letters, "--letters")
        for letter in letters:
            if letter in g.terminal_set:
                raise UsageError(f"argument --letters: {letter!r} is already a terminal")
        out = inverse_projection(g, g.terminals + letters)
    elif kind == "transduce":
        rel = parse_fsa(second(args.fsa))
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
        tau = NivatTransducer(
            source=_letters(args.source, "--source"),
            target=target,
            rel=rel,
            output_rename=rename,
        )
        out = nivat_transduce(g, tau)
    else:  # pragma: no cover
        raise GrammarError(f"unknown transform {kind!r}")
    _write_grammar(out, args.out)
    emit_report({
        "command": f"transform {kind}",
        **inputs,
        "out": args.out,
        "variables": len(out.variables),
        "productions": len(out.productions),
        "elapsed_s": f"{time.monotonic() - t0:.3f}",
        "status": "ok",
    })
    return PROVEN


def _read_shaped(path: str):
    """Read a `.sls` file that must have a `shape:` line; returns the input's
    digest, the name, the shape and the set."""
    text, digest = _read(path)
    name, shape, s = parse_slset(text)
    if shape is None:
        raise GrammarError(f"{path} has no `shape:` line")
    return digest, name, shape, s


def cmd_synth(args, semi: bool) -> str:
    digest, name, shape, s = _read_shaped(args.slset)
    if semi:
        g = semilinear_to_grammar(shape, s, name=name)
    else:
        if len(s.components) != 1:
            raise GrammarError("synth-linear needs exactly one linear component")
        g = linear_to_grammar(shape, s.components[0], name=name)
    _write_grammar(g, args.out)
    emit_report({
        "command": "synth-semilinear" if semi else "synth-linear",
        "input": digest,
        "out": args.out,
        "variables": len(g.variables),
        "productions": len(g.productions),
        "status": "ok",
    })
    return PROVEN


def cmd_slset(args) -> str:
    text, digest = _read(args.slset)
    _, _, s1 = parse_slset(text)
    op = args.slset_op
    fields = {"command": f"slset {op}", "input": digest}
    if op == "member":
        try:
            vector = parse_vector(args.vector)
        except ValueError as exc:
            raise UsageError(f"argument --vector: {exc}") from None
        got = slset_member(vector, s1)
        fields.update({"vector": args.vector, "member": str(got).lower(), "status": "ok"})
        emit_report(fields)
        return PROVEN if got else REFUTED
    if op == "empty":
        v = slset_empty(s1)
    else:
        text2, digest2 = _read(args.other)
        _, _, s2 = parse_slset(text2)
        fields["input.2"] = digest2
        v = slset_subset(s1, s2) if op == "subset" else slset_equal(s1, s2)
    witness = {} if v.witness is None else {"witness": str(v.witness)}
    emit_report({**fields, "verdict": v.kind, **witness, "status": v.kind})
    return v.kind


def cmd_bounded(args) -> str:
    digest, _, shape1, s1 = _read_shaped(args.slset)
    op = args.bounded_op
    if op == "member":
        w = _word(args.word, [c for u in shape1.words for c in u])
        got = bounded_word_member(w, shape1, s1)
        emit_report({
            "command": "bounded member", "input": digest, "word": args.word,
            "member": str(got).lower(), "status": "ok",
        })
        return PROVEN if got else REFUTED
    digest2, _, shape2, s2 = _read_shaped(args.other)
    v = bounded_lang_subset(shape1, s1, shape2, s2, args.check_len)
    witness = {} if v.witness is None else {"witness": _render_word(v.witness)}
    emit_report({"command": "bounded subset", "input": digest, "input.2": digest2,
                 "verdict": v.kind, **witness, **v.info, "status": v.kind})
    return v.kind


def cmd_etol(args) -> str:
    text, digest = _read(args.system)
    sys_ = parse_etol(text)
    op = args.etol_op
    if op == "enumerate":
        res = etol_enumerate(sys_, args.max_len, _budget(args))
        emit_report({
            "command": "etol enumerate", "input": digest,
            "count": len(res.words),
            "words": ", ".join(_render_word(w) for w in res.words),
            "exhausted": str(res.exhausted).lower(),
            **_stopped_by(res.stop),
            "status": "ok",
        })
        return PROVEN
    if op == "check-anf":
        problems = check_anf(sys_)
        emit_report({
            "command": "etol check-anf", "input": digest,
            "violations": len(problems),
            **{f"violation.{i}": p for i, p in enumerate(problems)},
            "status": "ok" if not problems else "invalid",
        })
        return REFUTED if problems else PROVEN
    g = etol_to_indexed(sys_)
    _write_grammar(g, args.out)
    emit_report({
        "command": "etol convert", "input": digest, "out": args.out,
        "variables": len(g.variables), "productions": len(g.productions),
        "status": "ok",
    })
    return PROVEN


def cmd_ncm(args) -> str:
    text, digest = _read(args.machine)
    m = parse_ncm(text)
    op = args.ncm_op
    if op == "run":
        w = _word(args.word, m.alphabet)
        v = ncm_run(m, w, counter_cap=args.counter_cap)
        emit_report({
            "command": "ncm run", "input": digest, "word": args.word,
            "outcome": OUTCOME[v.kind], "configs": v.info["configs"],
            **_stopped_by(v.info["stop"]), "status": OUTCOME[v.kind],
        })
        return v.kind
    if op == "one-reversal":
        m1 = to_one_reversal(m)
        Path(args.out).write_text(serialize_ncm(m1), encoding="utf-8")
        emit_report({
            "command": "ncm one-reversal", "input": digest, "out": args.out,
            "counters": m1.num_counters, "states": len(m1.states),
            "status": "ok",
        })
        return PROVEN
    if op == "expand":
        nfa = expand_to_nfa(to_one_reversal(m))
        Path(args.out).write_text(serialize_fsa(nfa), encoding="utf-8")
        emit_report({
            "command": "ncm expand", "input": digest, "out": args.out,
            "states": len(nfa.states), "status": "ok",
        })
        return PROVEN
    text2, digest2 = _read(args.grammar)
    g = parse_grammar(text2)
    sample = parikh_of_intersection(
        g, m, args.radius, enum_len=args.enum_len, budget=_budget(args)
    )
    emit_report({
        "command": "ncm parikh-intersect", "input": digest, "input.2": digest2,
        "radius": sample.radius, "enum_len": sample.enum_len,
        "exhausted": str(sample.exhausted).lower(), **_stopped_by(sample.stop),
        "vectors": "; ".join(str(v) for v in sample.vectors),
        "status": "ok",
    })
    return PROVEN


# ---------------------------------------------------------------------------
# paper replication

# Each claim of the paper as igkit command lines, each with the values the
# last block of its report must show; `{out}` is a temporary directory, and
# `{out}/g.ig` the grammar the line before wrote.
PAPER_CLAIMS = [
    ("twin-enumeration", [
        ("enumerate fixture:twin.ig --max-len 14 --max-steps 60 --max-stack 3",
         {"words": "$, abc$abc, aabbcc$aabbcc"})]),
    ("twin-synthesis", [
        ("synth-linear fixture:twin.sls --out {out}/g.ig", {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 14 --max-steps 60 --max-stack 3",
         {"words": "$, abc$abc, aabbcc$aabbcc"})]),
    ("ramp-enumeration", [
        ("enumerate fixture:ramp.ig --max-len 13 --max-steps 120 --max-width 4 --max-stack 5",
         {"words": "abaa, abaabaaa, abaabaaabaaaa"})]),
    ("ramp-min-index", [
        ("min-index fixture:ramp.ig abaa --max-steps 60 --max-stack 4", {"min_index": "3"})]),
    ("ramp-not-uncontrolled", [
        ("check-uncontrolled fixture:ramp.ig --k 3 --max-steps 60 --max-stack 5",
         {"verdict": "refuted"})]),
    ("union-closure", [
        ("transform union fixture:astar.ig fixture:bstar.ig --out {out}/g.ig", {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 5 --max-steps 30",
         {"words": "_, a, b, aa, bb, aaa, bbb, aaaa, bbbb, aaaaa, bbbbb"})]),
    ("morphism-closure", [
        ("transform morph fixture:anbn.ig fixture:axy.map --out {out}/g.ig", {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 10 --max-steps 40",
         {"words": "_, xy, xyxy, xyxyxy, xyxyxyxy, xyxyxyxyxy"})]),
    ("intersection-closure", [
        ("transform intersect-dfa fixture:twin.ig fixture:dollar.fsa --out {out}/g.ig",
         {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 14 --max-steps 200 --max-stack 3",
         {"words": "abc$abc, aabbcc$aabbcc"})]),
    ("inverse-projection-closure", [
        ("transform inv-proj fixture:abword.ig --letters x --out {out}/g.ig", {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 4 --max-steps 60",
         {"words": "ab, abx, axb, xab, abxx, axbx, axxb, xabx, xaxb, xxab"})]),
    ("etol-conversion", [
        ("etol enumerate fixture:anbn1.etol --max-len 8 --max-steps 20",
         {"words": "_, ab, aabb, aaabbb, aaaabbbb"}),
        ("etol convert fixture:anbn1.etol --out {out}/g.ig", {"status": "ok"}),
        ("enumerate {out}/g.ig --max-len 8 --max-steps 120 --max-stack 8 --max-width 3",
         {"words": "_, ab, aabb, aaabbb, aaaabbbb"})]),
    ("ncm-acceptance", [
        ("ncm run fixture:anbn.ncm aabb", {"outcome": "accepted"}),
        ("ncm run fixture:anbn.ncm aab", {"outcome": "rejected"})]),
    ("ncm-counting", [
        ("ncm parikh-intersect fixture:anbn.ncm fixture:sigmastar_ab.ig --radius 4 "
         "--max-steps 400 --max-width 6", {"vectors": "(0, 0); (1, 1); (2, 2)"})]),
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


def cmd_replicate(args) -> str:
    failures = 0
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as out:
        for name, lines in PAPER_CLAIMS:
            try:
                error = _claim_error(lines, out)
            except Exception as exc:  # a defect that escaped `main`: report it, run the rest
                error = f"{type(exc).__name__}: {exc}"
            if error is None:
                emit_report({"check": name, "result": "pass"})
            else:
                emit_report({"check": name, "result": "fail", "error": error})
                failures += 1
    emit_report({
        "command": "replicate-paper",
        "checks": len(PAPER_CLAIMS),
        "failures": failures,
        "elapsed_s": f"{time.monotonic() - t0:.3f}",
        "status": "ok" if failures == 0 else "fail",
    })
    return REFUTED if failures else PROVEN


# ---------------------------------------------------------------------------
# argument wiring


class UsageError(ValueError):
    """A command line that does not parse: `main` reports it as an input error."""


class _Help(Exception):
    """`-h` printed the help: `main` returns 0."""


class _Parser(argparse.ArgumentParser):
    # the subparsers are built from the same class, so their errors end here too,
    # and every flag is exact (`add_parser` does not pass `allow_abbrev` on)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")

    def exit(self, status=0, message=None):  # only `-h` exits
        raise _Help


def _count(text: str) -> int:
    """A non-negative integer argument."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {n}")
    return n


def _add_budget_flags(p, *caps, steps=400):
    """--max-steps, a --max-<cap> flag for each cap the command honors
    (`width`, `stack`), and --hard-cap."""
    p.add_argument("--max-steps", type=int, default=steps)
    for cap in caps:
        p.add_argument(f"--max-{cap}", type=int, default=None)
    p.add_argument("--hard-cap", type=int, default=1_000_000)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of one of COMMANDS alone (the same for it)."""
    ap = _Parser(
        prog="igkit",
        description="workbench for grammars whose variables carry index stacks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, text):
        return sub.add_parser(name, help=text) if command in (None, name) else None

    if p := add("validate", "check a grammar file"):
        p.add_argument("grammar")
        p.set_defaults(func=cmd_validate)

    if p := add("enumerate", "list generated words up to a length"):
        p.add_argument("grammar")
        p.add_argument("--max-len", type=_count, required=True)
        _add_budget_flags(p, "width", "stack")
        p.set_defaults(func=cmd_enumerate)

    if p := add("member", "search for a derivation of a word"):
        p.add_argument("grammar")
        p.add_argument("word")
        p.add_argument("--exhaustive", action="store_true",
                       help="caller asserts the width/stack caps cover every derivation")
        _add_budget_flags(p, "width", "stack")
        p.set_defaults(func=cmd_member)

    if p := add("min-index", "smallest derivation width for a word"):
        p.add_argument("grammar")
        p.add_argument("word")
        p.add_argument("--exhaustive", action="store_true")
        _add_budget_flags(p, "width", "stack")
        p.set_defaults(func=cmd_min_index)

    if p := add("check-uncontrolled", "look for wide successful derivations"):
        p.add_argument("grammar")
        p.add_argument("--k", type=int, required=True)
        _add_budget_flags(p, "stack")
        p.set_defaults(func=cmd_check_uncontrolled)

    if p := add("transform", "grammar-to-grammar constructions"):
        tsub = p.add_subparsers(dest="transform_kind", required=True)
        for kind in ("union", "morph", "inv-morph", "normalize", "intersect-dfa",
                     "inv-proj", "transduce"):
            tp = tsub.add_parser(kind)
            tp.add_argument("grammar")
            if kind == "union":
                tp.add_argument("other")
            elif kind in ("morph", "inv-morph"):
                tp.add_argument("morphism")
            elif kind in ("intersect-dfa", "transduce"):
                tp.add_argument("fsa")
            if kind == "inv-proj":
                tp.add_argument("--letters", required=True,
                                help="comma-separated new letters")
            if kind == "transduce":
                tp.add_argument("--source", required=True)
                tp.add_argument("--target", required=True)
                tp.add_argument("--rename", default=None,
                                help="comma-separated tagged=final pairs")
            tp.add_argument("--out", required=True)
            tp.set_defaults(func=cmd_transform)

    if p := add("synth-linear", "grammar for one linear component"):
        p.add_argument("slset")
        p.add_argument("--out", required=True)
        p.set_defaults(func=lambda a: cmd_synth(a, semi=False))

    if p := add("synth-semilinear", "grammar for a semilinear set"):
        p.add_argument("slset")
        p.add_argument("--out", required=True)
        p.set_defaults(func=lambda a: cmd_synth(a, semi=True))

    if p := add("slset", "semilinear set decisions"):
        ssub = p.add_subparsers(dest="slset_op", required=True)
        for op in ("member", "subset", "equal", "empty"):
            sp = ssub.add_parser(op)
            sp.add_argument("slset")
            if op in ("subset", "equal"):
                sp.add_argument("other")
            if op == "member":
                sp.add_argument("--vector", required=True)
            sp.set_defaults(func=cmd_slset)

    if p := add("bounded", "bounded-language decisions"):
        bsub = p.add_subparsers(dest="bounded_op", required=True)
        bp = bsub.add_parser("member")
        bp.add_argument("slset")
        bp.add_argument("word")
        bp.set_defaults(func=cmd_bounded)
        bp = bsub.add_parser("subset")
        bp.add_argument("slset")
        bp.add_argument("other")
        bp.add_argument("--check-len", type=_count, default=20)
        bp.set_defaults(func=cmd_bounded)

    if p := add("etol", "parallel rewriting systems"):
        esub = p.add_subparsers(dest="etol_op", required=True)
        ep = esub.add_parser("enumerate")
        ep.add_argument("system")
        ep.add_argument("--max-len", type=_count, required=True)
        _add_budget_flags(ep, "width", steps=30)
        ep.set_defaults(func=cmd_etol)
        ep = esub.add_parser("check-anf")
        ep.add_argument("system")
        ep.set_defaults(func=cmd_etol)
        ep = esub.add_parser("convert")
        ep.add_argument("system")
        ep.add_argument("--out", required=True)
        ep.set_defaults(func=cmd_etol)

    if p := add("ncm", "reversal-bounded counter machines"):
        nsub = p.add_subparsers(dest="ncm_op", required=True)
        np_ = nsub.add_parser("run")
        np_.add_argument("machine")
        np_.add_argument("word")
        np_.add_argument("--counter-cap", type=_count, help="largest counter value (default 2|w|+4)")
        np_.set_defaults(func=cmd_ncm)
        np_ = nsub.add_parser("one-reversal")
        np_.add_argument("machine")
        np_.add_argument("--out", required=True)
        np_.set_defaults(func=cmd_ncm)
        np_ = nsub.add_parser("expand")
        np_.add_argument("machine")
        np_.add_argument("--out", required=True)
        np_.set_defaults(func=cmd_ncm)
        np_ = nsub.add_parser("parikh-intersect")
        np_.add_argument("machine")
        np_.add_argument("grammar")
        np_.add_argument("--radius", type=_count, required=True)
        np_.add_argument("--enum-len", type=_count, default=None)
        _add_budget_flags(np_, "width", "stack", steps=600)
        np_.set_defaults(func=cmd_ncm)

    if p := add("replicate-paper", "run the bundled fixture suite"):
        p.set_defaults(func=cmd_replicate)
    return ap


COMMANDS = ("validate", "enumerate", "member", "min-index", "check-uncontrolled", "transform",
            "synth-linear", "synth-semilinear", "slset", "bounded", "etol", "ncm", "replicate-paper")


@functools.cache  # built on the first call of `main` for a command, reused by later ones
def _parser(command=None) -> argparse.ArgumentParser:
    return build_parser(command)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        return EXIT[args.func(args)]
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
