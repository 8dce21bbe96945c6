"""Batch command-line front end.

Every command prints a machine-readable report: `key: value` lines, blocks
separated by `---`. Every command handler returns the kind of its answer,
and `main` turns it into the exit status through EXIT: 0 for proven (or
success), 1 for refuted (or violations), 3 for unknown, limited by the
budget; 2 is an input error: an unreadable file or argument, or a file that
does not parse (`validate` reports every problem this way). Paths starting
with `fixture:` resolve to the bundled fixture files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from pathlib import Path

from . import fixture_path
from .automata import determinize, parse_fsa, serialize_fsa
from .closure import (
    Morphism,
    NivatTransducer,
    intersect_dfa,
    inverse_morphism,
    inverse_projection,
    morphism_image,
    nivat_transduce,
    normalize_rhs,
    parse_morphism,
    union,
)
from .counters import (
    expand_to_nfa,
    ncm_run,
    parikh_of_intersection,
    parse_ncm,
    serialize_ncm,
    to_one_reversal,
)
from .engine import (
    Budget,
    check_uncontrolled,
    enumerate_language,
    membership,
    min_index,
)
from .etol import check_anf, etol_enumerate, etol_to_indexed, parse_etol
from .grammar import (
    GrammarError,
    derivation_to_trace,
    parse_grammar,
    serialize_grammar,
)
from .search import FOUND, PROVEN, REFUTED, SWEPT, UNKNOWN
from .semilinear import (
    bounded_lang_subset,
    bounded_word_member,
    linear_to_grammar,
    parse_slset,
    semilinear_to_grammar,
    slset_empty,
    slset_equal,
    slset_member,
    slset_subset,
)

EXIT = {PROVEN: 0, REFUTED: 1, UNKNOWN: 3}
ERROR = 2

# how `ncm run` and `min-index` word the kind of their answer
OUTCOME = {PROVEN: "accepted", REFUTED: "rejected", UNKNOWN: "unknown"}
MIN_INDEX_STATUS = {PROVEN: "ok", REFUTED: "not-a-member", UNKNOWN: "unknown"}


def _resolve(path: str) -> Path:
    if path.startswith("fixture:"):
        return Path(str(fixture_path(path[len("fixture:"):])))
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
        ext = g.terminals + tuple(
            t.strip() for t in args.letters.split(",") if t.strip()
        )
        out = inverse_projection(g, ext)
    elif kind == "transduce":
        rel = parse_fsa(second(args.fsa))
        rename = None
        if args.rename:
            rename = tuple(
                tuple(pair.split("=", 1)) for pair in args.rename.split(",")
            )
        tau = NivatTransducer(
            source=tuple(args.source.split(",")),
            target=tuple(args.target.split(",")),
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


def cmd_synth(args, semi: bool) -> str:
    text, digest = _read(args.slset)
    name, shape, s = parse_slset(text)
    if shape is None:
        raise GrammarError(f"{args.slset} has no `shape:` line")
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


def _parse_vector_arg(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.strip().strip("()").split(",") if t.strip())


def cmd_slset(args) -> str:
    text, digest = _read(args.slset)
    _, _, s1 = parse_slset(text)
    op = args.slset_op
    fields = {"command": f"slset {op}", "input": digest}
    if op == "member":
        got = slset_member(_parse_vector_arg(args.vector), s1)
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
    text, digest = _read(args.slset)
    _, shape1, s1 = parse_slset(text)
    if shape1 is None:
        raise GrammarError(f"{args.slset} has no `shape:` line")
    op = args.bounded_op
    if op == "member":
        w = _word(args.word, [c for u in shape1.words for c in u])
        got = bounded_word_member(w, shape1, s1)
        emit_report({
            "command": "bounded member", "input": digest, "word": args.word,
            "member": str(got).lower(), "status": "ok",
        })
        return PROVEN if got else REFUTED
    text2, digest2 = _read(args.other)
    _, shape2, s2 = parse_slset(text2)
    if shape2 is None:
        raise GrammarError(f"{args.other} has no `shape:` line")
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
# fixture replication


def _replicate_checks():
    from .semilinear import ginsburg_apply, members_up_to

    def twin_enumeration():
        g = parse_grammar(_read("fixture:twin.ig")[0])
        res = enumerate_language(g, 14, Budget(max_steps=60, max_stack=3))
        return set(res.rendered()) == {"$", "abc$abc", "aabbcc$aabbcc"}

    def twin_synthesis():
        _, shape, s = parse_slset(_read("fixture:twin.sls")[0])
        g = linear_to_grammar(shape, s.components[0])
        res = enumerate_language(g, 14, Budget(max_steps=60, max_stack=3))
        words = {"".join(ginsburg_apply(shape, v))
                 for v in members_up_to(s, tuple(len(u) for u in shape.words), 14)}
        return set(res.rendered()) == words == {"$", "abc$abc", "aabbcc$aabbcc"}

    def ramp_enumeration():
        g = parse_grammar(_read("fixture:ramp.ig")[0])
        res = enumerate_language(g, 13, Budget(max_steps=120, max_width=4, max_stack=5))
        return set(res.rendered()) == {"abaa", "abaabaaa", "abaabaaabaaaa"}

    def ramp_min_index():
        g = parse_grammar(_read("fixture:ramp.ig")[0])
        v = min_index(g, tuple("abaa"), Budget(max_steps=60, max_stack=4))
        return v.is_proven and v.info["k"] == 3

    def ramp_not_uncontrolled():
        g = parse_grammar(_read("fixture:ramp.ig")[0])
        v = check_uncontrolled(g, 3, Budget(max_steps=60, max_stack=5))
        return v.is_refuted and v.witness.index() > 3

    def union_closure():
        g1 = parse_grammar(_read("fixture:astar.ig")[0])
        g2 = parse_grammar(_read("fixture:bstar.ig")[0])
        out = enumerate_language(union(g1, g2), 5, Budget(max_steps=30))
        return set(out.rendered()) == {""} | {c * n for c in "ab" for n in range(1, 6)}

    def morphism_closure():
        g = parse_grammar(_read("fixture:anbn.ig")[0])
        h = parse_morphism(_read("fixture:axy.map")[0])
        out = enumerate_language(morphism_image(g, h), 10, Budget(max_steps=40))
        return set(out.rendered()) == {"xy" * n for n in range(6)}

    def intersection_closure():
        g = normalize_rhs(parse_grammar(_read("fixture:twin.ig")[0]))
        d = determinize(parse_fsa(_read("fixture:dollar.fsa")[0]))
        out = enumerate_language(intersect_dfa(g, d), 14, Budget(max_steps=200, max_stack=3))
        return set(out.rendered()) == {"abc$abc", "aabbcc$aabbcc"}

    def inverse_projection_closure():
        g = parse_grammar(_read("fixture:abword.ig")[0])
        out = enumerate_language(inverse_projection(g, ("a", "b", "x")), 4,
                                 Budget(max_steps=60))
        want = {"ab", "xab", "axb", "abx", "xxab", "xaxb", "xabx", "axxb", "axbx", "abxx"}
        return set(out.rendered()) == want

    def etol_conversion():
        sys_ = parse_etol(_read("fixture:anbn1.etol")[0])
        direct = etol_enumerate(sys_, 8, Budget(max_steps=20))
        g = etol_to_indexed(sys_)
        conv = enumerate_language(g, 8, Budget(max_steps=120, max_stack=8, max_width=3))
        return direct.words == conv.words

    def ncm_acceptance():
        m = parse_ncm(_read("fixture:anbn.ncm")[0])
        return ncm_run(m, tuple("aabb")).is_proven and not ncm_run(m, tuple("aab")).is_proven

    def ncm_counting():
        m = parse_ncm(_read("fixture:anbn.ncm")[0])
        g = parse_grammar(_read("fixture:sigmastar_ab.ig")[0])
        sample = parikh_of_intersection(g, m, 4, budget=Budget(max_steps=400, max_width=6))
        return sample.vectors == ((0, 0), (1, 1), (2, 2))

    def slset_decisions():
        _, _, diag = parse_slset(_read("fixture:diag.sls")[0])
        _, _, quad = parse_slset(_read("fixture:quadrant.sls")[0])
        return slset_subset(diag, quad).is_proven and not slset_subset(quad, diag).is_proven

    def bounded_membership():
        _, shape, s = parse_slset(_read("fixture:twin.sls")[0])
        return bounded_word_member(tuple("abc$abc"), shape, s) and not bounded_word_member(
            tuple("abc$ac"), shape, s
        )

    return [
        ("twin-enumeration", twin_enumeration),
        ("twin-synthesis", twin_synthesis),
        ("ramp-enumeration", ramp_enumeration),
        ("ramp-min-index", ramp_min_index),
        ("ramp-not-uncontrolled", ramp_not_uncontrolled),
        ("union-closure", union_closure),
        ("morphism-closure", morphism_closure),
        ("intersection-closure", intersection_closure),
        ("inverse-projection-closure", inverse_projection_closure),
        ("etol-conversion", etol_conversion),
        ("ncm-acceptance", ncm_acceptance),
        ("ncm-counting", ncm_counting),
        ("slset-decisions", slset_decisions),
        ("bounded-membership", bounded_membership),
    ]


def cmd_replicate(args) -> str:
    failures = 0
    t0 = time.monotonic()
    checks = _replicate_checks()
    for name, check in checks:
        try:
            ok = check()
        except Exception as exc:  # report, keep going
            ok = False
            emit_report({"check": name, "result": "fail", "error": f"{type(exc).__name__}: {exc}"})
            failures += 1
            continue
        emit_report({"check": name, "result": "pass" if ok else "fail"})
        failures += 0 if ok else 1
    emit_report({
        "command": "replicate-paper",
        "checks": len(checks),
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


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="igkit",
        description="workbench for grammars whose variables carry index stacks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a grammar file")
    p.add_argument("grammar")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("enumerate", help="list generated words up to a length")
    p.add_argument("grammar")
    p.add_argument("--max-len", type=_count, required=True)
    _add_budget_flags(p, "width", "stack")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("member", help="search for a derivation of a word")
    p.add_argument("grammar")
    p.add_argument("word")
    p.add_argument("--exhaustive", action="store_true",
                   help="caller asserts the width/stack caps cover every derivation")
    _add_budget_flags(p, "width", "stack")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("min-index", help="smallest derivation width for a word")
    p.add_argument("grammar")
    p.add_argument("word")
    p.add_argument("--exhaustive", action="store_true")
    _add_budget_flags(p, "width", "stack")
    p.set_defaults(func=cmd_min_index)

    p = sub.add_parser("check-uncontrolled", help="look for wide successful derivations")
    p.add_argument("grammar")
    p.add_argument("--k", type=int, required=True)
    _add_budget_flags(p, "stack")
    p.set_defaults(func=cmd_check_uncontrolled)

    p = sub.add_parser("transform", help="grammar-to-grammar constructions")
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

    p = sub.add_parser("synth-linear", help="grammar for one linear component")
    p.add_argument("slset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=lambda a: cmd_synth(a, semi=False))

    p = sub.add_parser("synth-semilinear", help="grammar for a semilinear set")
    p.add_argument("slset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=lambda a: cmd_synth(a, semi=True))

    p = sub.add_parser("slset", help="semilinear set decisions")
    ssub = p.add_subparsers(dest="slset_op", required=True)
    for op in ("member", "subset", "equal", "empty"):
        sp = ssub.add_parser(op)
        sp.add_argument("slset")
        if op in ("subset", "equal"):
            sp.add_argument("other")
        if op == "member":
            sp.add_argument("--vector", required=True)
        sp.set_defaults(func=cmd_slset)

    p = sub.add_parser("bounded", help="bounded-language decisions")
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

    p = sub.add_parser("etol", help="parallel rewriting systems")
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

    p = sub.add_parser("ncm", help="reversal-bounded counter machines")
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

    p = sub.add_parser("replicate-paper", help="run the bundled fixture suite")
    p.set_defaults(func=cmd_replicate)
    return ap


@functools.cache  # built on the first call of `main`, reused by later ones
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
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
