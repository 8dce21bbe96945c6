"""Command-line surface: exit codes, report shape, file outputs."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from igkit import cli
from igkit.automata import parse_fsa
from igkit.cli import build_parser, main, parse_report
from igkit.counters import parse_ncm
from igkit.grammar import parse_grammar

from util import SILENT_SIX, validate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, parse_report(out)


def test_validate_ok(capsys):
    code, blocks = run(capsys, "validate", "fixture:twin.ig")
    assert code == 0
    assert blocks[0]["status"] == "ok"
    assert blocks[0]["violations"] == "0"


def test_input_digest_is_the_sha256_of_the_file(tmp_path, capsys):
    """The `input:` digest is taken over the bytes as stored, so a CRLF copy
    has its own digest; everything else in its report is the LF copy's."""
    text = cli.fixture_path("anbn.ig").read_text(encoding="utf-8")
    rest = []
    for name, newline in (("lf.ig", "\n"), ("crlf.ig", "\r\n")):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", newline).encode())
        code, blocks = run_clean(capsys, "enumerate", str(path), "--max-len", "4")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        assert code == 0 and blocks[0].pop("input") == f"{path} sha256:{digest}"
        rest.append({k: v for k, v in blocks[0].items() if k != "elapsed_s"})
    assert rest[0] == rest[1] and rest[0]["words"] == "_, ab, aabb"


def test_enumerate_twin(capsys):
    code, blocks = run(
        capsys, "enumerate", "fixture:twin.ig", "--max-len", "14",
        "--max-steps", "60", "--max-stack", "3",
    )
    assert code == 0
    b = blocks[0]
    assert b["count"] == "3"
    assert b["words"] == "$, abc$abc, aabbcc$aabbcc"
    assert b["exhausted"] == "true"


def test_member_exit_codes(capsys):
    code, blocks = run(capsys, "member", "fixture:anbn.ig", "aabb", "--exhaustive")
    assert code == 0 and blocks[0]["verdict"] == "proven"
    code, blocks = run(capsys, "member", "fixture:anbn.ig", "aab", "--exhaustive")
    assert code == 1 and blocks[0]["verdict"] == "refuted"
    code, blocks = run(capsys, "member", "fixture:anbn.ig", "aab")
    assert code == 3 and blocks[0]["verdict"] == "unknown"


def run_clean(capsys, *argv):
    """run, and require that nothing was written to stderr (no traceback)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, parse_report(captured.out)


def test_enumerate_hard_cap_is_a_stop_reason(capsys):
    code, blocks = run_clean(
        capsys, "enumerate", "fixture:twin.ig", "--max-len", "14", "--max-stack", "3",
        "--hard-cap", "10",
    )
    assert code == 0
    assert blocks[0]["exhausted"] == "false"
    assert blocks[0]["stopped_by"] == "hard_cap"
    assert blocks[0]["status"] == "ok"
    assert int(blocks[0]["forms"]) <= 10


def test_enumerate_step_cap_is_named(capsys):
    code, blocks = run_clean(
        capsys, "enumerate", "fixture:twin.ig", "--max-len", "14", "--max-stack", "3",
        "--max-steps", "2",
    )
    assert code == 0
    assert blocks[0]["exhausted"] == "false"
    assert blocks[0]["stopped_by"] == "max_steps"
    # a swept search names no cap
    code, blocks = run_clean(capsys, "enumerate", "fixture:anbn.ig", "--max-len", "4")
    assert blocks[0]["exhausted"] == "true" and "stopped_by" not in blocks[0]


def test_member_hard_cap_is_unknown(capsys):
    code, blocks = run_clean(
        capsys, "member", "fixture:twin.ig", "aabbcc$aabbcc", "--max-stack", "3",
        "--hard-cap", "10", "--exhaustive",
    )
    assert code == 3
    assert blocks[0]["verdict"] == "unknown"
    assert blocks[0]["exhausted"] == "false"
    assert blocks[0]["stopped_by"] == "hard_cap"


def test_etol_enumerate_hard_cap_is_a_stop_reason(capsys):
    code, blocks = run_clean(
        capsys, "etol", "enumerate", "fixture:anbn1.etol", "--max-len", "6", "--hard-cap", "3"
    )
    assert code == 0
    assert blocks[0]["exhausted"] == "false"
    assert blocks[0]["stopped_by"] == "hard_cap"
    assert blocks[0]["status"] == "ok"
    code, blocks = run_clean(
        capsys, "etol", "enumerate", "fixture:anbn1.etol", "--max-len", "6", "--max-steps", "2"
    )
    assert blocks[0]["exhausted"] == "false" and blocks[0]["stopped_by"] == "max_steps"


def test_ncm_run_counter_cap(capsys, tmp_path):
    p = tmp_path / "six.ncm"
    p.write_text(SILENT_SIX)
    # the default cap (2|w| + 4) is below the 6 silent increments
    code, blocks = run_clean(capsys, "ncm", "run", str(p), "_")
    assert code == 3 and blocks[0]["outcome"] == "unknown"
    assert blocks[0]["stopped_by"] == "counter_cap"
    code, blocks = run_clean(capsys, "ncm", "run", str(p), "_", "--counter-cap", "6")
    assert code == 0 and blocks[0]["outcome"] == "accepted" and "stopped_by" not in blocks[0]


def test_min_index_report(capsys):
    code, blocks = run(
        capsys, "min-index", "fixture:ramp.ig", "abaa", "--max-stack", "4",
        "--max-steps", "60",
    )
    assert code == 0
    assert blocks[0]["min_index"] == "3"
    assert blocks[0]["witness"].startswith("init | S")


def test_check_uncontrolled_refuted(capsys):
    code, blocks = run(
        capsys, "check-uncontrolled", "fixture:ramp.ig", "--k", "3",
        "--max-stack", "5", "--max-steps", "60",
    )
    assert code == 1
    assert blocks[0]["verdict"] == "refuted"
    assert int(blocks[0]["witness_width"]) > 3
    assert blocks[0]["exhausted"] == "false" and "stopped_by" not in blocks[0]


def test_check_uncontrolled_swept_names_no_cap(capsys):
    code, blocks = run_clean(capsys, "check-uncontrolled", "fixture:anbn.ig", "--k", "1")
    assert code == 0 and blocks[0]["verdict"] == "proven"
    assert blocks[0]["exhausted"] == "true" and "stopped_by" not in blocks[0]


def test_check_uncontrolled_step_cap_is_named(capsys):
    # without a stack cap, max_steps bounds the stack depth, and twin.ig
    # pushes at every depth: the depth caps 1, 2, 4 and 5 leave out a push
    code, blocks = run_clean(
        capsys, "check-uncontrolled", "fixture:twin.ig", "--k", "7", "--max-steps", "5",
    )
    assert code == 3 and blocks[0]["verdict"] == "unknown"
    assert blocks[0]["exhausted"] == "false" and blocks[0]["stopped_by"] == "max_steps"
    assert blocks[0]["forms"] == "41"


def test_check_uncontrolled_proof_outlasts_the_step_cap(capsys):
    # a proof covers every derivation within the stack cap, whatever its length
    code, blocks = run_clean(
        capsys, "check-uncontrolled", "fixture:twin.ig", "--k", "7", "--max-stack", "3",
        "--max-steps", "5",
    )
    assert code == 0 and blocks[0]["verdict"] == "proven"
    assert blocks[0]["exhausted"] == "true" and "stopped_by" not in blocks[0]


@pytest.mark.parametrize("stack,pairs", [("3", "25"), ("4", "33"), ("64", "513")])
def test_check_uncontrolled_pairs_pinned(capsys, stack, pairs):
    code, blocks = run_clean(
        capsys, "check-uncontrolled", "fixture:twin.ig", "--k", "8", "--max-stack", stack,
    )
    assert code == 0 and blocks[0]["verdict"] == "proven"
    assert blocks[0]["forms"] == pairs


@pytest.mark.parametrize("name,k,code,verdict", [
    ("twin.ig", "7", 3, "unknown"),
    ("ramp.ig", "3", 1, "refuted"),
])
def test_check_uncontrolled_default_steps_without_stack_cap(capsys, name, k, code, verdict):
    got, blocks = run_clean(capsys, "check-uncontrolled", f"fixture:{name}", "--k", k)
    assert got == code and blocks[0]["verdict"] == verdict


def test_check_uncontrolled_hard_cap_is_named(capsys):
    code, blocks = run_clean(
        capsys, "check-uncontrolled", "fixture:twin.ig", "--k", "7", "--max-stack", "3",
        "--hard-cap", "20",
    )
    assert code == 3 and blocks[0]["verdict"] == "unknown"
    assert blocks[0]["exhausted"] == "false" and blocks[0]["stopped_by"] == "hard_cap"


# S -> W W W -> ... has 12 variables after 4 steps, and finishing them takes 12 more
WIDE = (
    "grammar wide\nvariables: S, W, X\nterminals: x\nindices:\nstart: S\n"
    "prod: S -> W W W\nprod: W -> X X X X\nprod: X -> x\n"
)


def test_check_uncontrolled_witness_outlasts_the_step_cap(capsys, tmp_path):
    p = tmp_path / "wide.ig"
    p.write_text(WIDE)
    code, blocks = run_clean(capsys, "check-uncontrolled", str(p), "--k", "1",
                             "--max-steps", "10")
    assert code == 1 and blocks[0]["verdict"] == "refuted"
    assert blocks[0]["witness_width"] == "12"
    assert len(blocks[0]["witness"].split(" ; ")) == 1 + 16


def test_transform_union_writes_grammar(tmp_path, capsys):
    out = tmp_path / "u.ig"
    code, blocks = run(
        capsys, "transform", "union", "fixture:astar.ig", "fixture:bstar.ig",
        "--out", str(out),
    )
    assert code == 0
    code2, blocks2 = run(
        capsys, "enumerate", str(out), "--max-len", "2", "--max-steps", "10",
    )
    assert code2 == 0
    assert blocks2[0]["words"] == "_, a, b, aa, bb"


def test_transform_transduce(tmp_path, capsys):
    rel = tmp_path / "rel.fsa"
    rel.write_text(
        "fsa r\nstates: r0, r1\nalphabet: a, b, c, d\ninitial: r0\naccepting: r0\n"
        "trans: r0 a -> r1\ntrans: r1 c -> r0\ntrans: r0 b -> r0\n",
        encoding="utf-8",
    )
    out = tmp_path / "t.ig"
    code, _ = run(
        capsys, "transform", "transduce", "fixture:anbn.ig", str(rel),
        "--source", "a,b", "--target", "c,d", "--out", str(out),
    )
    assert code == 0
    code2, blocks2 = run(
        capsys, "enumerate", str(out), "--max-len", "3",
        "--max-steps", "300", "--max-width", "4",
    )
    assert blocks2[0]["words"] == "_, c, cc, ccc"


def test_subset_names_do_not_collide_with_state_names(tmp_path, capsys):
    """A state called `a|b` and the subset {a, b} get different DFA names."""
    fsa = tmp_path / "pipe.fsa"
    fsa.write_text("fsa pipe\nstates: s, a, b, a|b\nalphabet: x\ninitial: s\naccepting: a|b\n"
                   "trans: s x -> a, b\ntrans: a x -> a|b\ntrans: b x -> a|b\n", encoding="utf-8")
    xs = tmp_path / "xs.ig"
    xs.write_text("grammar xs\nvariables: S\nterminals: x\nindices:\nstart: S\n"
                  "prod: S -> x S\nprod: S -> _\n", encoding="utf-8")
    out = tmp_path / "o.ig"
    code, _ = run_clean(capsys, "transform", "intersect-dfa", str(xs), str(fsa), "--out", str(out))
    assert code == 0
    code, blocks = run_clean(capsys, "enumerate", str(out), "--max-len", "6")
    assert blocks[0]["words"] == "xx" and blocks[0]["exhausted"] == "true"


@pytest.mark.parametrize("argv,name,text,line", [
    (["transform", "morph", "fixture:anbn.ig"], "bad.map",
     "morphism bad\nmap: a -> x _\nmap: b -> x\n", 2),
    (["transform", "morph", "fixture:anbn.ig"], "bad.map",
     "morphism bad\ntarget: x\nmap: a -> y\nmap: b -> x\n", 3),
    (["etol", "check-anf"], "bad.etol",
     "etol bad\naxiom: S\nterminals: a\ntable t:\nrule: S -> a _\n", 5),
    (["transform", "morph", "fixture:anbn.ig"], "dup.map",
     "morphism dup\ntarget: x, x\nmap: a -> x\nmap: b -> x\n", 2),
    (["transform", "intersect-dfa", "fixture:anbn.ig"], "dup.fsa",
     "fsa dup\nstates: q, q\nalphabet: a, b\ninitial: q\naccepting: q\n", 2),
    (["etol", "check-anf"], "dup.etol",
     "etol dup\naxiom: S\nterminals: a, a\ntable t:\nrule: S -> a\n", 3),
], ids=["map-mixed-empty", "map-outside-target", "etol-mixed-empty", "map-repeated-target",
        "fsa-repeated-state", "etol-repeated-terminal"])
def test_unreadable_right_sides_are_input_errors(tmp_path, capsys, argv, name, text, line):
    """A morphism image or an ETOL rule that mixes `_` with letters, a
    morphism image outside its `target:`, or a name listed twice where it is
    declared, is rejected at its line; before, `transform morph` wrote a
    grammar that `validate` could not read."""
    src = tmp_path / name
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "o.ig"
    extra = ["--out", str(out)] if argv[0] == "transform" else []
    code, blocks = run_clean(capsys, *argv, str(src), *extra)
    assert code == 2
    assert blocks[0]["status"] == "error"
    assert blocks[0]["error"].startswith(f"ParseError: line {line},")
    assert not out.exists()


def test_synth_linear(tmp_path, capsys):
    out = tmp_path / "synth.ig"
    code, blocks = run(capsys, "synth-linear", "fixture:twin.sls", "--out", str(out))
    assert code == 0
    assert blocks[0]["variables"] == "9"
    assert blocks[0]["productions"] == "17"


def test_slset_subset_exit_codes(capsys):
    code, blocks = run(capsys, "slset", "subset", "fixture:diag.sls", "fixture:quadrant.sls")
    assert code == 0 and blocks[0]["verdict"] == "proven"
    code, blocks = run(capsys, "slset", "subset", "fixture:quadrant.sls", "fixture:diag.sls")
    assert code == 1 and blocks[0]["verdict"] == "refuted"
    assert "witness" in blocks[0]


def test_slset_member(capsys):
    code, blocks = run(
        capsys, "slset", "member", "fixture:twin.sls", "--vector", "(2,2,2,1,2,2,2)"
    )
    assert code == 0 and blocks[0]["member"] == "true"


def test_bounded_member(capsys):
    code, blocks = run(capsys, "bounded", "member", "fixture:twin.sls", "abc$abc")
    assert code == 0 and blocks[0]["member"] == "true"
    code, _ = run(capsys, "bounded", "member", "fixture:twin.sls", "abc$ac")
    assert code == 1


def test_etol_commands(tmp_path, capsys):
    code, blocks = run(
        capsys, "etol", "enumerate", "fixture:anbn1.etol", "--max-len", "6"
    )
    assert code == 0 and blocks[0]["words"] == "_, ab, aabb, aaabbb"
    code, _ = run(capsys, "etol", "check-anf", "fixture:anbn1.etol")
    assert code == 0
    out = tmp_path / "conv.ig"
    code, blocks = run(capsys, "etol", "convert", "fixture:anbn1.etol", "--out", str(out))
    assert code == 0 and out.exists()


def test_ncm_commands(tmp_path, capsys):
    code, blocks = run(capsys, "ncm", "run", "fixture:anbn.ncm", "aabb")
    assert code == 0 and blocks[0]["outcome"] == "accepted"
    code, _ = run(capsys, "ncm", "run", "fixture:anbn.ncm", "aab")
    assert code == 1
    out = tmp_path / "one.ncm"
    code, blocks = run(capsys, "ncm", "one-reversal", "fixture:updown.ncm", "--out", str(out))
    assert code == 0 and blocks[0]["counters"] == "2"
    code, blocks = run(
        capsys, "ncm", "parikh-intersect", "fixture:anbn.ncm", "fixture:sigmastar_ab.ig",
        "--radius", "4", "--max-width", "6",
    )
    assert code == 0
    assert blocks[0]["vectors"] == "(0, 0); (1, 1); (2, 2)"
    assert blocks[0]["exhausted"] == "true" and "stopped_by" not in blocks[0]
    # the step cap bounds the stack depth of the table: sigmastar_ab pushes
    # nothing, so it does not bind there; anbncn.ig needs depth n + 1 for a^n b^n c^n
    code, blocks = run_clean(
        capsys, "ncm", "parikh-intersect", "fixture:anbn.ncm", "fixture:sigmastar_ab.ig",
        "--radius", "4", "--max-width", "6", "--max-steps", "5",
    )
    assert code == 0 and blocks[0]["vectors"] == "(0, 0); (1, 1); (2, 2)"
    assert blocks[0]["exhausted"] == "true" and "stopped_by" not in blocks[0]
    code, blocks = run_clean(
        capsys, "ncm", "parikh-intersect", "fixture:anbncn.ncm", "fixture:anbncn.ig",
        "--radius", "4", "--max-width", "6", "--max-steps", "5",
    )
    assert code == 0 and blocks[0]["vectors"] == "(0, 0, 0); (1, 1, 1)"
    assert blocks[0]["exhausted"] == "false" and blocks[0]["stopped_by"] == "max_steps"


# input and argument errors: each is one `status: error` report and exit 2
ERRORS = [
    (["validate", "fixture:missing.ig"], "FileNotFoundError: "),
    (["validate", "{tmp}"], "IsADirectoryError: "),
    (["transform", "normalize", "fixture:anbn.ig", "--out", "{tmp}"], "IsADirectoryError: "),
    (["enumerate", "fixture:anbn.ig"],
     "UsageError: igkit enumerate: the following arguments are required: --max-len"),
    (["enumerate", "fixture:anbn.ig", "--max-len", "x"],
     "UsageError: igkit enumerate: argument --max-len: invalid int value: 'x'"),
    (["check-uncontrolled", "fixture:anbn.ig", "--k", "1", "--max-width", "3"],
     "UsageError: igkit: unrecognized arguments: --max-width 3"),
    # flags are exact: a prefix of a flag the command has is not that flag
    (["etol", "enumerate", "fixture:anbn1.etol", "--max-len", "6", "--max-st", "2"],
     "UsageError: igkit: unrecognized arguments: --max-st 2"),
    (["enumerate", "fixture:anbn.ig", "--max-len", "4", "--max-w", "3"],
     "UsageError: igkit: unrecognized arguments: --max-w 3"),
    # lengths, radii and caps are counts: a negative one is not "no cap"
    (["enumerate", "fixture:anbn.ig", "--max-len", "-1", "--max-steps", "12"],
     "UsageError: igkit enumerate: argument --max-len: must be >= 0: -1"),
    (["etol", "enumerate", "fixture:anbn1.etol", "--max-len", "-1"],
     "UsageError: igkit etol enumerate: argument --max-len: must be >= 0: -1"),
    (["ncm", "parikh-intersect", "fixture:anbn.ncm", "fixture:sigmastar_ab.ig", "--radius", "-1"],
     "UsageError: igkit ncm parikh-intersect: argument --radius: must be >= 0: -1"),
    (["ncm", "parikh-intersect", "fixture:anbn.ncm", "fixture:sigmastar_ab.ig", "--radius", "2",
      "--enum-len", "-1"],
     "UsageError: igkit ncm parikh-intersect: argument --enum-len: must be >= 0: -1"),
    (["bounded", "subset", "fixture:twin.sls", "fixture:twin.sls", "--check-len", "-1"],
     "UsageError: igkit bounded subset: argument --check-len: must be >= 0: -1"),
    (["ncm", "run", "fixture:anbn.ncm", "ab", "--counter-cap", "-1"],
     "UsageError: igkit ncm run: argument --counter-cap: must be >= 0: -1"),
    (["enumerate", "fixture:anbn.ig", "--max-len", "3", "--max-steps", "-1"],
     "UsageError: igkit enumerate: argument --max-steps: must be >= 0: -1"),
    (["etol", "enumerate", "fixture:anbn1.etol", "--max-len", "3", "--max-width", "-1"],
     "UsageError: igkit etol enumerate: argument --max-width: must be >= 0: -1"),
    (["check-uncontrolled", "fixture:anbn.ig", "--k", "1", "--max-stack", "-1"],
     "UsageError: igkit check-uncontrolled: argument --max-stack: must be >= 0: -1"),
    (["member", "fixture:anbn.ig", "ab", "--hard-cap", "-1"],
     "UsageError: igkit member: argument --hard-cap: must be >= 0: -1"),
    # a --vector outside ℕ^k, for the set's k: a negative component, or the wrong length
    (["slset", "member", "fixture:diag.sls", "--vector", "(-1,-1)"],
     "ValueError: vector (-1, -1) has a negative component"),
    (["slset", "member", "fixture:diag.sls", "--vector", "(1,1,1)"],
     "ValueError: dimension mismatch"),
    # a --vector is read as the vectors of a `.sls` file are: `(a,b,…)` and nothing else
    (["slset", "member", "fixture:diag.sls", "--vector", "(1,,1)"],
     "UsageError: argument --vector: bad vector '(1,,1)'"),
    (["slset", "member", "fixture:diag.sls", "--vector", "((1,1))"],
     "UsageError: argument --vector: bad vector '((1,1))'"),
    (["slset", "member", "fixture:diag.sls", "--vector", "1,1"],
     "UsageError: argument --vector: expected a (…) vector, got '1,1'"),
    (["slset", "member", "fixture:diag.sls", "--vector", "(1_0,10)"],
     "UsageError: argument --vector: bad vector '(1_0,10)'"),
    (["slset", "member", "fixture:diag.sls", "--vector", "(+1,1)"],
     "UsageError: argument --vector: bad vector '(+1,1)'"),
    # letters given in flags are ones a grammar file can declare
    (["transform", "inv-proj", "fixture:abword.ig", "--letters", "_", "--out", "{tmp}/o.ig"],
     "UsageError: argument --letters: `_` is the empty word, not a symbol name"),
    (["transform", "inv-proj", "fixture:abword.ig", "--letters", "x,,y", "--out", "{tmp}/o.ig"],
     "UsageError: argument --letters: symbol name is empty"),
    (["transform", "transduce", "fixture:anbncn.ig", "fixture:dollar.fsa", "--source", "a,b,c",
      "--target", "$", "--rename", "$=x y", "--out", "{tmp}/o.ig"],
     "UsageError: argument --rename: symbol name 'x y' contains forbidden character ' '"),
    (["transform", "transduce", "fixture:anbncn.ig", "fixture:dollar.fsa", "--source", "a,b,c",
      "--target", "$", "--rename", "$x", "--out", "{tmp}/o.ig"],
     "UsageError: argument --rename: expected tagged=final pairs, got '$x'"),
    (["transform", "transduce", "fixture:anbncn.ig", "fixture:dollar.fsa", "--source", "a,b,c",
      "--target", "$", "--rename", "q=x", "--out", "{tmp}/o.ig"],
     "UsageError: argument --rename: tagged letter 'q' is not in --target"),
    (["transform", "transduce", "fixture:anbncn.ig", "fixture:dollar.fsa", "--source", "a,b,c",
      "--target", "$|", "--out", "{tmp}/o.ig"],
     "UsageError: argument --target: symbol name '$|' contains forbidden character '|'"),
    # a letter is given once, and the letters inv-proj adds are new to the grammar
    (["transform", "inv-proj", "fixture:anbn.ig", "--letters", "x,x", "--out", "{tmp}/o.ig"],
     "UsageError: argument --letters: letter 'x' is given twice"),
    (["transform", "inv-proj", "fixture:anbn.ig", "--letters", "a", "--out", "{tmp}/o.ig"],
     "UsageError: argument --letters: 'a' is already a terminal"),
    (["transform", "transduce", "fixture:anbncn.ig", "fixture:dollar.fsa", "--source", "a,b,c",
      "--target", "$,$", "--out", "{tmp}/o.ig"],
     "UsageError: argument --target: letter '$' is given twice"),
    # a group given no subcommand names its subcommands
    (["ncm"], "UsageError: igkit ncm: the following arguments are required: "
              "{run,one-reversal,expand,parikh-intersect}"),
    (["transform"], "UsageError: igkit transform: the following arguments are required: "
                    "{union,morph,inv-morph,normalize,intersect-dfa,inv-proj,transduce}"),
    # an argv that names no command row is parsed by the parser of every command
    ([], "UsageError: igkit: the following arguments are required: command"),
    (["nope"], "UsageError: igkit: argument command: invalid choice: 'nope'"),
    (["transform", "nope"], "UsageError: igkit transform: argument "
                            "{union,morph,inv-morph,normalize,intersect-dfa,inv-proj,transduce}: "
                            "invalid choice: 'nope'"),
    (["--max-len", "3", "enumerate", "fixture:anbn.ig"],
     "UsageError: igkit: argument command: invalid choice: '3'"),
]


@pytest.mark.parametrize("argv,error", ERRORS, ids=["missing-input", "dir-input", "dir-out",
                                                  "no-max-len", "bad-int", "removed-flag",
                                                  "flag-prefix-etol", "flag-prefix-enumerate",
                                                  "negative-max-len", "negative-etol-max-len",
                                                  "negative-radius", "negative-enum-len",
                                                  "negative-check-len", "negative-counter-cap",
                                                  "negative-max-steps", "negative-max-width",
                                                  "negative-max-stack", "negative-hard-cap",
                                                  "negative-vector", "wrong-dim-vector",
                                                  "doubled-comma-vector", "nested-vector",
                                                  "bare-vector", "underscore-vector",
                                                  "plus-vector", "empty-word-letter",
                                                  "empty-letter", "spaced-rename",
                                                  "rename-without-equals", "rename-off-target",
                                                  "reserved-target", "repeated-letter",
                                                  "letter-of-the-grammar", "repeated-target",
                                                  "ncm-no-subcommand",
                                                  "transform-no-subcommand", "no-command",
                                                  "unknown-command", "unknown-subcommand",
                                                  "flag-before-command"])
def test_error_exit_code(tmp_path, capsys, argv, error):
    code, blocks = run_clean(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert len(blocks) == 1
    assert blocks[0]["command"] == (argv[0] if argv else "igkit")
    assert blocks[0]["status"] == "error" and blocks[0]["error"].startswith(error)
    assert list(tmp_path.iterdir()) == []  # an input error writes no file



@pytest.mark.parametrize("argv,usage", [(["-h"], "igkit [-h]"),
                                        (["enumerate", "-h"], "igkit enumerate [-h]"),
                                        (["transform", "union", "-h"],
                                         "igkit transform union [-h]")],
                         ids=["top", "enumerate", "subcommand"])
def test_help_prints_and_returns_zero(capsys, argv, usage):
    code, blocks = run_clean(capsys, *argv)
    assert code == 0 and blocks[0]["usage"].startswith(usage)


def test_a_command_alone_helps_as_in_the_full_parser(capsys):
    def help_text(ap, *argv):
        with pytest.raises(cli._Help):
            ap.parse_args([*argv, "-h"])
        return capsys.readouterr().out

    assert "{" + ",".join(cli.COMMANDS) + "}" in help_text(build_parser())
    for name in cli.TABLE:
        assert help_text(cli._row_parser(name)) == help_text(build_parser(), *name.split())


# a sequence of calls in one process: a flag given then left out, a usage error
# then a valid call, and each top-level command once
SEQUENCE = [
    ["member", "fixture:anbn.ig", "aab", "--exhaustive"],
    ["member", "fixture:anbn.ig", "aab"],
    ["enumerate", "fixture:anbn.ig", "--max-len", "6", "--max-width", "3"],
    ["enumerate", "fixture:anbn.ig", "--max-len", "6"],
    ["enumerate", "fixture:anbn.ig", "--max-len", "x"],
    ["enumerate", "fixture:anbn.ig", "--max-len", "4", "--max-w", "3"],
    ["enumerate", "fixture:anbn.ig", "--max-len", "4"],
    ["validate", "fixture:twin.ig"],
    ["min-index", "fixture:ramp.ig", "abaa", "--max-stack", "4"],
    ["check-uncontrolled", "fixture:ramp.ig", "--k", "3", "--max-stack", "5"],
    ["transform", "union", "fixture:astar.ig", "fixture:bstar.ig", "--out", "{tmp}/u.ig"],
    ["synth-linear", "fixture:twin.sls", "--out", "{tmp}/l.ig"],
    ["synth-semilinear", "fixture:twin.sls", "--out", "{tmp}/s.ig"],
    ["slset", "subset", "fixture:diag.sls", "fixture:quadrant.sls"],
    ["bounded", "member", "fixture:twin.sls", "abc$abc"],
    ["etol", "enumerate", "fixture:anbn1.etol", "--max-len", "6"],
    ["ncm", "run", "fixture:anbn.ncm", "aabb"],
    ["replicate-paper"],
]


def row_name(argv):
    """The TABLE row an argv runs."""
    return " ".join(argv[:2]) if argv[0] in cli.GROUPS else argv[0]


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    def outcomes():
        got = []
        for argv in SEQUENCE:
            code = main([a.format(tmp=tmp_path) for a in argv])
            blocks = parse_report(capsys.readouterr().out)
            got.append((code, [{k: v for k, v in b.items() if k != "elapsed_s"}
                               for b in blocks]))
        return got

    # main builds the parser of each row it runs alone, once, and never the
    # parser of every command; replicate-paper runs the rows of its claims
    builds = []
    row_parser = cli._row_parser
    monkeypatch.setattr(cli, "_row_parser",
                        lambda name, p=None: builds.append(name) or row_parser(name, p))
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(None) or build_parser())
    cli._parser.cache_clear()
    reused = outcomes()
    run = {row_name(argv) for argv in SEQUENCE}
    run |= {row_name(line.split()) for _, lines in cli.PAPER_CLAIMS for line, _ in lines}
    assert sorted(builds) == sorted(run)
    assert [code for code, _ in reused[:7]] == [1, 3, 0, 0, 2, 2, 0]
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)  # a fresh parser for every call
    assert outcomes() == reused
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))  # the full one
    assert outcomes() == reused

# commands that write a file: (argv, the file, enumerate flags for the output
# grammar, its words); a grammar must pass `validate`, an automaton `parse_fsa`
# and a machine `parse_ncm`
WRITERS = [
    (["ncm", "expand", "fixture:anbn.ncm"], "out.fsa", None, None),
    (["ncm", "one-reversal", "fixture:updown.ncm"], "out.ncm", None, None),
    (["transform", "union", "fixture:astar.ig", "fixture:bstar.ig"], "out.ig",
     ["--max-len", "2", "--max-steps", "10"], "_, a, b, aa, bb"),
    (["transform", "morph", "fixture:anbn.ig", "fixture:axy.map"], "out.ig",
     ["--max-len", "4"], "_, xy, xyxy"),
    (["transform", "intersect-dfa", "fixture:twin.ig", "fixture:dollar.fsa"], "out.ig",
     ["--max-len", "7", "--max-stack", "3"], "abc$abc"),
    (["synth-linear", "fixture:twin.sls"], "out.ig",
     ["--max-len", "7", "--max-stack", "3"], "$, abc$abc"),
    (["etol", "convert", "fixture:anbn1.etol"], "out.ig",
     ["--max-len", "4", "--max-stack", "3"], "_, ab, aabb"),
    (["synth-semilinear", "fixture:twin.sls"], "out.ig",
     ["--max-len", "7", "--max-stack", "3"], "$, abc$abc"),
    (["transform", "inv-morph", "fixture:anbn.ig", "fixture:idab.map"], "out.ig",
     ["--max-len", "4"], "_, ab, aabb"),
    (["transform", "normalize", "fixture:twin.ig"], "out.ig",
     ["--max-len", "7", "--max-stack", "3"], "$, abc$abc"),
    (["transform", "inv-proj", "fixture:abword.ig", "--letters", "x"], "out.ig",
     ["--max-len", "3"], "ab, abx, axb, xab"),
    # the words of anbncn with one $ after an a, the source letters erased, $ renamed x
    (["transform", "transduce", "fixture:anbncn.ig", "fixture:dollar.fsa", "--source", "a,b,c",
      "--target", "$", "--rename", "$=x"], "out.ig", ["--max-len", "2", "--max-stack", "3"], "x"),
]


@pytest.mark.parametrize("argv,name,flags,words", WRITERS,
                         ids=["ncm-expand", "ncm-one-reversal", "union", "morph", "intersect-dfa",
                              "synth-linear", "etol-convert", "synth-semilinear", "inv-morph",
                              "normalize", "inv-proj", "transduce-rename"])
def test_written_files_read_back(tmp_path, capsys, argv, name, flags, words):
    out = tmp_path / name
    code, blocks = run_clean(capsys, *argv, "--out", str(out))
    assert code == 0 and blocks[0]["status"] == "ok"
    if flags is None:
        read = parse_fsa if name.endswith(".fsa") else parse_ncm
        assert len(read(out.read_text(encoding="utf-8")).states) == int(blocks[0]["states"])
        return
    code, blocks = run_clean(capsys, "validate", str(out))
    assert code == 0 and blocks[0]["violations"] == "0"
    assert validate(parse_grammar(out.read_text(encoding="utf-8"))) == []
    code, blocks = run_clean(capsys, "enumerate", str(out), *flags)
    assert blocks[0]["exhausted"] == "true" and blocks[0]["words"] == words


def test_parikh_intersect_enum_len(capsys):
    # the words up to length 6 hold a^n b^n with its counter letters for n <= 1 only
    argv = ["ncm", "parikh-intersect", "fixture:anbn.ncm", "fixture:sigmastar_ab.ig",
            "--radius", "4", "--max-width", "6"]
    code, blocks = run_clean(capsys, *argv)
    assert code == 0 and blocks[0]["enum_len"] == "12"
    assert blocks[0]["vectors"] == "(0, 0); (1, 1); (2, 2)"
    code, blocks = run_clean(capsys, *argv, "--enum-len", "6")
    assert code == 0 and blocks[0]["enum_len"] == "6" and blocks[0]["exhausted"] == "true"
    assert blocks[0]["vectors"] == "(0, 0); (1, 1)"


# every cap a budgeted command takes changes its report when set tight:
# (argv, flag, loose value or None for absent, tight value, report key, its two values)
ENUM = ["enumerate", "fixture:anbn.ig", "--max-len", "6"]
MEMBER = ["member", "fixture:anbn.ig", "aabb"]
MIN_INDEX = ["min-index", "fixture:ramp.ig", "abaa"]
UNCONTROLLED = ["check-uncontrolled", "fixture:twin.ig", "--k", "7"]
ETOL = ["etol", "enumerate", "fixture:anbn1.etol", "--max-len", "6"]
PARIKH = ["ncm", "parikh-intersect", "fixture:anbn.ncm", "fixture:sigmastar_ab.ig",
          "--radius", "4"]
CAPS = [
    (ENUM, "--max-steps", None, "2", "stopped_by", None, "max_steps"),
    (ENUM, "--max-width", None, "0", "count", "4", "1"),
    (["enumerate", "fixture:twin.ig", "--max-len", "7"], "--max-stack", "3", "0",
     "count", "2", "0"),
    (ENUM, "--hard-cap", None, "3", "stopped_by", None, "hard_cap"),
    (MEMBER, "--max-steps", None, "2", "verdict", "proven", "unknown"),
    (MEMBER, "--max-width", None, "0", "verdict", "proven", "unknown"),
    (["member", "fixture:twin.ig", "abc$abc"], "--max-stack", "3", "0",
     "verdict", "proven", "unknown"),
    (MEMBER, "--hard-cap", None, "2", "stopped_by", None, "hard_cap"),
    (MIN_INDEX + ["--max-stack", "4"], "--max-steps", None, "2", "stopped_by", None, "max_steps"),
    (MIN_INDEX + ["--max-stack", "4"], "--max-width", None, "2", "status", "ok", "unknown"),
    (MIN_INDEX, "--max-stack", "4", "1", "status", "ok", "unknown"),
    (MIN_INDEX + ["--max-stack", "4"], "--hard-cap", None, "5", "stopped_by", None, "hard_cap"),
    (UNCONTROLLED, "--max-steps", None, "5", "forms", "3201", "41"),
    (UNCONTROLLED, "--max-stack", "64", "3", "forms", "513", "25"),
    (UNCONTROLLED + ["--max-stack", "3"], "--hard-cap", None, "20", "verdict", "proven", "unknown"),
    (ETOL, "--max-steps", None, "2", "stopped_by", None, "max_steps"),
    (["etol", "enumerate", "fixture:abc.etol", "--max-len", "9"], "--max-width", None, "2",
     "count", "4", "0"),
    (ETOL, "--hard-cap", None, "3", "stopped_by", None, "hard_cap"),
    (["ncm", "parikh-intersect", "fixture:anbncn.ncm", "fixture:anbncn.ig", "--radius", "4"],
     "--max-steps", "8", "1", "vectors", "(0, 0, 0); (1, 1, 1)", "(0, 0, 0)"),
    (PARIKH, "--max-width", None, "1", "vectors", "(0, 0); (1, 1); (2, 2)", "(0, 0)"),
    (["ncm", "parikh-intersect", "fixture:anbncn.ncm", "fixture:anbncn.ig", "--radius", "1"],
     "--max-stack", None, "1", "exhausted", "false", "true"),
    (PARIKH + ["--max-width", "6"], "--hard-cap", None, "10", "stopped_by", None, "hard_cap"),
]


@pytest.mark.parametrize("argv,flag,loose,tight,key,was,now", CAPS,
                         ids=[f"{r[0][0]} {r[1]}" for r in CAPS])
def test_every_cap_a_command_takes_is_honored(capsys, argv, flag, loose, tight, key, was, now):
    _, blocks = run_clean(capsys, *argv, *([] if loose is None else [flag, loose]))
    assert blocks[0].get(key) == was
    _, blocks = run_clean(capsys, *argv, flag, tight)
    assert blocks[0].get(key) == now


# the caps a command does not honor are not flags of it: --max-<cap> is an
# argument error (`yield` was a cap of every command until it was removed)
REMOVED = [
    (ENUM, ("yield",)),
    (MEMBER, ("yield",)),
    (MIN_INDEX, ("yield",)),
    (UNCONTROLLED, ("yield", "width")),
    (ETOL, ("yield", "stack")),
    (PARIKH, ("yield",)),
]


@pytest.mark.parametrize("argv,caps", REMOVED, ids=[r[0][0] for r in REMOVED])
def test_caps_a_command_ignores_are_rejected(capsys, argv, caps):
    for flag in (f"--max-{cap}" for cap in caps):
        code, blocks = run_clean(capsys, *argv, flag, "3")
        assert code == 2 and blocks[0]["status"] == "error"
        assert blocks[0]["error"] == f"UsageError: igkit: unrecognized arguments: {flag} 3"


def test_replicate_paper(capsys):
    code, blocks = run(capsys, "replicate-paper")
    assert code == 0
    summary = blocks[-1]
    assert summary["failures"] == "0"
    assert all(b["result"] == "pass" for b in blocks[:-1])


def test_replicate_paper_names_the_value_a_report_lacks(capsys, monkeypatch):
    line = "min-index fixture:ramp.ig abaa --max-steps 60 --max-stack 4"
    monkeypatch.setattr(cli, "PAPER_CLAIMS", [
        (name, [(line, {"min_index": "4"})] if name == "ramp-min-index" else lines)
        for name, lines in cli.PAPER_CLAIMS
    ])
    code, blocks = run_clean(capsys, "replicate-paper")
    assert code == 1
    checks = {b["check"]: b for b in blocks[:-1]}
    assert checks.pop("ramp-min-index") == {
        "check": "ramp-min-index", "result": "fail",
        "error": f"igkit {line}: min_index: 3, want 4",
    }
    assert [b["result"] for b in checks.values()] == ["pass"] * 13
    assert blocks[-1]["checks"] == "14" and blocks[-1]["failures"] == "1"
    assert blocks[-1]["status"] == "fail"


def test_a_claim_pins_the_sweep_of_a_complete_list(tmp_path):
    # S -> _ | S S a | a: at --max-steps 7 the leftmost search lists every word
    # up to length 5, but sweeps only at 11, so a claim on the list alone passes
    (tmp_path / "g.ig").write_text("grammar loose\nvariables: S\nterminals: a\nindices:\n"
                                   "start: S\nprod: S -> _\nprod: S -> S S a\nprod: S -> a\n")
    line = "enumerate {out}/g.ig --max-len 5 --max-steps 7"
    words = {"words": "_, a, aa, aaa, aaaa, aaaaa"}
    assert cli._claim_error([(line, words)], str(tmp_path)) is None
    assert cli._claim_error([(line, {"exhausted": "true", **words})], str(tmp_path)) == (
        f"igkit {line}: exhausted: false, want true")


@pytest.mark.parametrize("line,error", [
    ("validate fixture:missing.ig", "FileNotFoundError: [Errno 2] No such file or directory"),
    ("enumerate fixture:anbn.ig --max-len 2", "RuntimeError: a defect"),
], ids=["input-error", "escaped-exception"])
def test_replicate_paper_reports_a_failing_line(capsys, monkeypatch, line, error):
    def defect(*args):
        raise RuntimeError("a defect")

    monkeypatch.setattr(cli, "enumerate_language", defect)
    monkeypatch.setattr(cli, "PAPER_CLAIMS", [("claim", [(line, {"status": "ok"})])])
    code, blocks = run_clean(capsys, "replicate-paper")
    assert code == 1
    assert blocks[0]["result"] == "fail" and blocks[0]["error"].startswith(error)
    assert blocks[1]["failures"] == "1"


def test_replicate_paper_runs_every_line_through_main(capsys, monkeypatch):
    # each call first prints a block of its own, so only a runner that reads
    # the last block of a report sees the command's values
    calls = []
    real = cli.main

    def counting(argv=None):
        calls.append(argv)
        cli.emit_report({"call": len(calls)})
        return real(argv)

    monkeypatch.setattr(cli, "main", counting)
    code = cli.main(["replicate-paper"])
    blocks = parse_report(capsys.readouterr().out)
    assert code == 0
    assert len(calls) == 1 + sum(len(lines) for _, lines in cli.PAPER_CLAIMS)
    assert [b["result"] for b in blocks if "check" in b] == ["pass"] * 14


def fresh(*argv):
    """Run Python with `argv` in a new process that imports igkit from src/;
    it must exit 0 and write nothing to stderr. Returns what it prints."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    return proc.stdout


def test_replicate_paper_as_a_process():
    out = fresh("-m", "igkit", "replicate-paper")
    assert [b.get("result") for b in parse_report(out)] == ["pass"] * 14 + [None]


# the igkit modules loaded after `import igkit.cli`, then after each command
LOADS = """
import contextlib, io, json, sys
import igkit.cli
loaded = [sorted(m for m in sys.modules if m.startswith("igkit"))]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        igkit.cli.main(argv)
    loaded.append(sorted(m for m in sys.modules if m.startswith("igkit")))
print(json.dumps(loaded))
"""


def test_import_loads_the_derivation_core_and_a_command_its_layers(tmp_path):
    core = ["igkit", "igkit.cli", "igkit.engine", "igkit.grammar", "igkit.kernel",
            "igkit.search"]
    loaded = json.loads(fresh("-c", LOADS, json.dumps([
        ["validate", "fixture:twin.ig"],
        ["enumerate", "fixture:twin.ig", "--max-len", "6"],
        ["member", "fixture:anbn.ig", "aabb"],
        ["min-index", "fixture:ramp.ig", "abaa", "--max-steps", "60"],
        ["check-uncontrolled", "fixture:ramp.ig", "--k", "3", "--max-steps", "60"],
        ["transform", "union", "fixture:astar.ig", "fixture:bstar.ig",
         "--out", str(tmp_path / "g.ig")],
    ])))
    assert loaded[:6] == [core] * 6
    assert loaded[6] == sorted(core + ["igkit.automata", "igkit.closure"])


# without `site`, nothing but igkit's own imports loads a module; after a
# command of every layer, neither `dataclasses` nor `importlib.resources` is
# among them
HEAVY = """
import contextlib, io, json, sys
import igkit.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        igkit.cli.main(argv)
print(json.dumps([sorted(m for m in sys.modules if m.startswith("igkit")),
                  [m for m in ("dataclasses", "importlib.resources") if m in sys.modules]]))
"""


def test_no_layer_loads_dataclasses_or_importlib_resources(tmp_path):
    loaded, heavy = json.loads(fresh("-S", "-c", HEAVY, json.dumps([
        ["enumerate", "fixture:twin.ig", "--max-len", "6"],
        ["transform", "intersect-dfa", "fixture:twin.ig", "fixture:dollar.fsa",
         "--out", str(tmp_path / "g.ig")],
        ["slset", "subset", "fixture:diag.sls", "fixture:quadrant.sls"],
        ["etol", "enumerate", "fixture:anbn1.etol", "--max-len", "6"],
        ["ncm", "run", "fixture:anbn.ncm", "aabb"],
    ])))
    assert loaded == ["igkit"] + [f"igkit.{m}" for m in (
        "automata", "cli", "closure", "counters", "engine", "etol", "grammar", "kernel", "search",
        "semilinear", "vector_automata")]
    assert heavy == []


# wrappers set on globals of cli after import, as perfbench/tracing.py sets its
# spans: on a stand-in before its first call, which must not rebind the global
# when it resolves, and on names cli imports; each must see every call `main`
# makes, as `main` looks readers and layer functions up when a command runs
WRAPPED = """
import contextlib, io, json, sys
from igkit import cli
calls = []
def wrap(name, fn):
    return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)
wrappers = {name: wrap(name, getattr(cli, name))
            for name in ("union", "parse_grammar", "parse_fsa", "serialize_grammar", "membership")}
for name, wrapper in wrappers.items():
    setattr(cli, name, wrapper)
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    seen.append(sorted(calls))
    calls.clear()
print(json.dumps([seen, all(getattr(cli, name) is w for name, w in wrappers.items())]))
"""


def test_a_wrapper_on_a_stand_in_sees_every_call(tmp_path):
    out = str(tmp_path / "g.ig")
    union = ["transform", "union", "fixture:astar.ig", "fixture:bstar.ig", "--out", out]
    seen, kept = json.loads(fresh("-c", WRAPPED, json.dumps([
        union, union, ["member", "fixture:anbn.ig", "aabb"],
        ["transform", "intersect-dfa", "fixture:twin.ig", "fixture:dollar.fsa", "--out", out],
        ["enumerate", "fixture:twin.ig", "--max-len", "6"],
    ])))
    assert kept
    assert seen == [
        ["parse_grammar", "parse_grammar", "serialize_grammar", "union"],
        ["parse_grammar", "parse_grammar", "serialize_grammar", "union"],
        ["membership", "parse_grammar"],
        ["parse_fsa", "parse_grammar", "serialize_grammar"],
        ["parse_grammar"],
    ]


def test_reports_parse_back(capsys):
    code = main(["enumerate", "fixture:eps.ig", "--max-len", "2", "--max-steps", "5"])
    text = capsys.readouterr().out
    blocks = parse_report(text)
    assert len(blocks) == 1
    assert set(blocks[0]) >= {"command", "input", "words", "exhausted", "status"}

# the report of every command and subcommand, and of an input error: (argv,
# exit status, the number of blocks, the lines of the last one); `elapsed_s`
# stands for that line with any value, and {tmp} for a temporary directory
SHAPES = [
    ('validate fixture:twin.ig', 0, 1, [
        'command: validate',
        'input: fixture:twin.ig sha256:7cffbe76b783',
        'violations: 0',
        'elapsed_s',
        'status: ok',
    ]),
    ('enumerate fixture:twin.ig --max-len 14 --max-steps 60 --max-stack 3', 0, 1, [
        'command: enumerate',
        'input: fixture:twin.ig sha256:7cffbe76b783',
        'max_len: 14',
        'count: 3',
        'words: $, abc$abc, aabbcc$aabbcc',
        'exhausted: true',
        'caps: max_steps max_stack',
        'forms: 49',
        'elapsed_s',
        'status: ok',
    ]),
    ('member fixture:anbn.ig aabb --exhaustive', 0, 1, [
        'command: member',
        'input: fixture:anbn.ig sha256:8e6779c798c2',
        'word: aabb',
        'verdict: proven',
        'exhausted: false',
        'witness: init | S ; p0 @ 0 | a S b ; p0 @ 1 | a a S b b ; p1 @ 2 | a a b b ; ',
        'elapsed_s',
        'status: proven',
    ]),
    ('min-index fixture:ramp.ig abaa --max-steps 60 --max-stack 4', 0, 1, [
        'command: min-index',
        'input: fixture:ramp.ig sha256:41a93325eb99',
        'word: abaa',
        'min_index: 3',
        'witness: init | S ; p0 @ 0 | X[e] ; p1 @ 0 | A[e] B[e] H[e] ; p8 @ 0 | a B[e] H[e] ; '
        "p10 @ 1 | a b H[e] ; p2 @ 2 | a b X'[f,e] ; p4 @ 2 | a b X''[f,e] ; "
        "p5 @ 2 | a b a X''[e] ; p6 @ 3 | a b a a ; ",
        'elapsed_s',
        'status: ok',
    ]),
    ('min-index fixture:anbn.ig ba --exhaustive', 1, 1, [
        'command: min-index',
        'input: fixture:anbn.ig sha256:8e6779c798c2',
        'word: ba',
        'elapsed_s',
        'status: not-a-member',
    ]),
    ('min-index fixture:twin.ig aabbcc$aabbcc --max-stack 3 --hard-cap 10', 3, 1, [
        'command: min-index',
        'input: fixture:twin.ig sha256:7cffbe76b783',
        'word: aabbcc$aabbcc',
        'stopped_by: hard_cap',
        'elapsed_s',
        'status: unknown',
    ]),
    ('check-uncontrolled fixture:ramp.ig --k 3 --max-stack 5 --max-steps 60', 1, 1, [
        'command: check-uncontrolled',
        'input: fixture:ramp.ig sha256:41a93325eb99',
        'k: 3',
        'verdict: refuted',
        'exhausted: false',
        'forms: 30',
        'witness_width: 5',
        'witness: init | S ; p0 @ 0 | X[e] ; p1 @ 0 | A[e] B[e] H[e] ; '
        "p2 @ 2 | A[e] B[e] X'[f,e] ; p3 @ 2 | A[e] B[e] X[f,e] ; "
        'p1 @ 2 | A[e] B[e] A[f,e] B[f,e] H[f,e] ; p8 @ 0 | a B[e] A[f,e] B[f,e] H[f,e] ; '
        'p10 @ 1 | a b A[f,e] B[f,e] H[f,e] ; p7 @ 2 | a b a A[e] B[f,e] H[f,e] ; '
        'p8 @ 3 | a b a a B[f,e] H[f,e] ; p9 @ 4 | a b a a B[e] H[f,e] ; '
        "p10 @ 4 | a b a a b H[f,e] ; p2 @ 5 | a b a a b X'[f,f,e] ; "
        "p4 @ 5 | a b a a b X''[f,f,e] ; p5 @ 5 | a b a a b a X''[f,e] ; "
        "p5 @ 6 | a b a a b a a X''[e] ; p6 @ 7 | a b a a b a a a ; ",
        'elapsed_s',
        'status: refuted',
    ]),
    ('transform union fixture:astar.ig fixture:bstar.ig --out {tmp}/o.ig', 0, 1, [
        'command: transform union',
        'input: fixture:astar.ig sha256:b285014dbdf0',
        'input.2: fixture:bstar.ig sha256:101bf55620b3',
        'out: {tmp}/o.ig',
        'variables: 3',
        'productions: 6',
        'elapsed_s',
        'status: ok',
    ]),
    ('transform morph fixture:anbn.ig fixture:axy.map --out {tmp}/o.ig', 0, 1, [
        'command: transform morph',
        'input: fixture:anbn.ig sha256:8e6779c798c2',
        'input.2: fixture:axy.map sha256:05d6094a15bb',
        'out: {tmp}/o.ig',
        'variables: 1',
        'productions: 2',
        'elapsed_s',
        'status: ok',
    ]),
    ('transform inv-morph fixture:anbn.ig fixture:idab.map --out {tmp}/o.ig', 0, 1, [
        'command: transform inv-morph',
        'input: fixture:anbn.ig sha256:8e6779c798c2',
        'input.2: fixture:idab.map sha256:42f1323d5929',
        'out: {tmp}/o.ig',
        'variables: 25',
        'productions: 35',
        'elapsed_s',
        'status: ok',
    ]),
    ('transform normalize fixture:twin.ig --out {tmp}/o.ig', 0, 1, [
        'command: transform normalize',
        'input: fixture:twin.ig sha256:7cffbe76b783',
        'out: {tmp}/o.ig',
        'variables: 15',
        'productions: 23',
        'elapsed_s',
        'status: ok',
    ]),
    ('transform intersect-dfa fixture:twin.ig fixture:dollar.fsa --out {tmp}/o.ig', 0, 1, [
        'command: transform intersect-dfa',
        'input: fixture:twin.ig sha256:7cffbe76b783',
        'input.2: fixture:dollar.fsa sha256:551cddcadc6c',
        'out: {tmp}/o.ig',
        'variables: 17',
        'productions: 25',
        'elapsed_s',
        'status: ok',
    ]),
    ('transform inv-proj fixture:abword.ig --letters x --out {tmp}/o.ig', 0, 1, [
        'command: transform inv-proj',
        'input: fixture:abword.ig sha256:40cd6576f5c7',
        'out: {tmp}/o.ig',
        'variables: 4',
        'productions: 8',
        'elapsed_s',
        'status: ok',
    ]),
    ('transform transduce fixture:anbncn.ig fixture:dollar.fsa '
     '--source a,b,c --target $ --rename $=x --out {tmp}/o.ig', 0, 1, [
        'command: transform transduce',
        'input: fixture:anbncn.ig sha256:f8f656d1fb6b',
        'input.2: fixture:dollar.fsa sha256:551cddcadc6c',
        'out: {tmp}/o.ig',
        'variables: 69',
        'productions: 96',
        'elapsed_s',
        'status: ok',
    ]),
    ('synth-linear fixture:twin.sls --out {tmp}/o.ig', 0, 1, [
        'command: synth-linear',
        'input: fixture:twin.sls sha256:b087e2ac6139',
        'out: {tmp}/o.ig',
        'variables: 9',
        'productions: 17',
        'elapsed_s',
        'status: ok',
    ]),
    ('synth-semilinear fixture:twin.sls --out {tmp}/o.ig', 0, 1, [
        'command: synth-semilinear',
        'input: fixture:twin.sls sha256:b087e2ac6139',
        'out: {tmp}/o.ig',
        'variables: 9',
        'productions: 17',
        'elapsed_s',
        'status: ok',
    ]),
    ('slset member fixture:diag.sls --vector (2,2)', 0, 1, [
        'command: slset member',
        'input: fixture:diag.sls sha256:8eb3f2b46b2d',
        'vector: (2,2)',
        'member: true',
        'elapsed_s',
        'status: ok',
    ]),
    ('slset subset fixture:quadrant.sls fixture:diag.sls', 1, 1, [
        'command: slset subset',
        'input: fixture:quadrant.sls sha256:7644b0d96743',
        'input.2: fixture:diag.sls sha256:8eb3f2b46b2d',
        'verdict: refuted',
        'witness: (1, 0)',
        'elapsed_s',
        'status: refuted',
    ]),
    ('slset equal fixture:diag.sls fixture:diag.sls', 0, 1, [
        'command: slset equal',
        'input: fixture:diag.sls sha256:8eb3f2b46b2d',
        'input.2: fixture:diag.sls sha256:8eb3f2b46b2d',
        'verdict: proven',
        'elapsed_s',
        'status: proven',
    ]),
    ('slset empty fixture:diag.sls', 1, 1, [
        'command: slset empty',
        'input: fixture:diag.sls sha256:8eb3f2b46b2d',
        'verdict: refuted',
        'witness: (0, 0)',
        'elapsed_s',
        'status: refuted',
    ]),
    ('bounded member fixture:twin.sls abc$ac', 1, 1, [
        'command: bounded member',
        'input: fixture:twin.sls sha256:b087e2ac6139',
        'word: abc$ac',
        'member: false',
        'elapsed_s',
        'status: ok',
    ]),
    ('bounded subset fixture:twin.sls fixture:twin.sls --check-len 14', 0, 1, [
        'command: bounded subset',
        'input: fixture:twin.sls sha256:b087e2ac6139',
        'input.2: fixture:twin.sls sha256:b087e2ac6139',
        'verdict: proven',
        'elapsed_s',
        'status: proven',
    ]),
    ('etol enumerate fixture:anbn1.etol --max-len 6 --max-steps 2', 0, 1, [
        'command: etol enumerate',
        'input: fixture:anbn1.etol sha256:020f924ad654',
        'count: 2',
        'words: _, ab',
        'exhausted: false',
        'stopped_by: max_steps',
        'elapsed_s',
        'status: ok',
    ]),
    ('etol check-anf fixture:anbn1.etol', 0, 1, [
        'command: etol check-anf',
        'input: fixture:anbn1.etol sha256:020f924ad654',
        'violations: 0',
        'elapsed_s',
        'status: ok',
    ]),
    ('etol convert fixture:anbn1.etol --out {tmp}/o.ig', 0, 1, [
        'command: etol convert',
        'input: fixture:anbn1.etol sha256:020f924ad654',
        'out: {tmp}/o.ig',
        'variables: 2',
        'productions: 5',
        'elapsed_s',
        'status: ok',
    ]),
    ('ncm run fixture:anbn.ncm aabb', 0, 1, [
        'command: ncm run',
        'input: fixture:anbn.ncm sha256:7f56ec4a71d2',
        'word: aabb',
        'outcome: accepted',
        'configs: 7',
        'elapsed_s',
        'status: accepted',
    ]),
    ('ncm one-reversal fixture:updown.ncm --out {tmp}/o.ncm', 0, 1, [
        'command: ncm one-reversal',
        'input: fixture:updown.ncm sha256:a1433a7850a3',
        'out: {tmp}/o.ncm',
        'counters: 2',
        'states: 8',
        'elapsed_s',
        'status: ok',
    ]),
    ('ncm expand fixture:anbn.ncm --out {tmp}/o.fsa', 0, 1, [
        'command: ncm expand',
        'input: fixture:anbn.ncm sha256:7f56ec4a71d2',
        'out: {tmp}/o.fsa',
        'states: 12',
        'elapsed_s',
        'status: ok',
    ]),
    ('ncm parikh-intersect fixture:anbn.ncm fixture:sigmastar_ab.ig '
     '--radius 4 --max-width 6', 0, 1, [
        'command: ncm parikh-intersect',
        'input: fixture:anbn.ncm sha256:7f56ec4a71d2',
        'input.2: fixture:sigmastar_ab.ig sha256:806cb1b874e1',
        'radius: 4',
        'enum_len: 12',
        'exhausted: true',
        'vectors: (0, 0); (1, 1); (2, 2)',
        'elapsed_s',
        'status: ok',
    ]),
    ('replicate-paper', 0, 15, [
        'command: replicate-paper',
        'checks: 14',
        'failures: 0',
        'elapsed_s',
        'status: ok',
    ]),
    ('validate {tmp}/missing.ig', 2, 1, [
        'command: validate',
        "error: FileNotFoundError: [Errno 2] No such file or directory: '{tmp}/missing.ig'",
        'status: error',
    ]),
]


@pytest.mark.parametrize("line,code,count,want", SHAPES,
                         ids=[r[0].split(" --")[0].replace("{tmp}/", "") for r in SHAPES])
def test_report_shape(tmp_path, capsys, line, code, count, want):
    got = main([a.format(tmp=tmp_path) for a in line.split()])
    blocks = capsys.readouterr().out.replace(str(tmp_path), "{tmp}").split("---\n")
    assert blocks.pop() == "" and len(blocks) == count
    lines = ["elapsed_s" if re.fullmatch(r"elapsed_s: \d+\.\d{3}", x) else x
             for x in blocks[-1].splitlines()]
    assert (got, lines) == (code, want)


def test_multichar_terminal_words_use_spaces(tmp_path, capsys):
    g = tmp_path / "multi.ig"
    g.write_text(
        "grammar multi\nvariables: S\nterminals: foo, bar\nindices:\nstart: S\n"
        "prod: S -> foo bar\n",
        encoding="utf-8",
    )
    code, blocks = run(capsys, "member", str(g), "foo bar", "--exhaustive")
    assert code == 0 and blocks[0]["verdict"] == "proven"
    code, blocks = run(capsys, "enumerate", str(g), "--max-len", "3", "--max-steps", "5")
    assert blocks[0]["words"] == "foo bar"


def test_slset_equal_and_empty(capsys):
    code, blocks = run(capsys, "slset", "equal", "fixture:diag.sls", "fixture:diag.sls")
    assert code == 0 and blocks[0]["verdict"] == "proven"
    code, blocks = run(capsys, "slset", "equal", "fixture:diag.sls", "fixture:quadrant.sls")
    assert code == 1
    code, blocks = run(capsys, "slset", "empty", "fixture:diag.sls")
    assert code == 1 and blocks[0]["witness"] == "(0, 0)"


def test_bounded_subset_cli(capsys):
    code, blocks = run(
        capsys, "bounded", "subset", "fixture:twin.sls", "fixture:twin.sls",
        "--check-len", "14",
    )
    assert code == 0 and blocks[0]["verdict"] == "proven"


def test_bounded_subset_checked_up_to_a_length_is_unknown(tmp_path, capsys):
    # every image word up to --check-len is in the other language, which
    # proves nothing beyond that length
    for name in ("aa.sls", "a.sls"):
        (tmp_path / name).write_text(CONTRACT_FILES[name], encoding="utf-8")
    code, blocks = run_clean(capsys, "bounded", "subset", str(tmp_path / "aa.sls"),
                             str(tmp_path / "a.sls"), "--check-len", "10")
    assert code == 3
    assert blocks[0]["verdict"] == "unknown" == blocks[0]["status"]
    assert blocks[0]["checked_len"] == "10"


# -- one exit-status rule for every decision ------------------------------------------------

# Files the contract rows below read from the temporary directory.
CONTRACT_FILES = {
    "six.ncm": SILENT_SIX,
    "none.sls": "slset none\ndim: 2\n",
    "aa.sls": "slset aa\ndim: 2\nshape: a, a\nlinear: base = (0,0); periods = (1,0),(0,1)\n",
    "a.sls": "slset a\ndim: 1\nshape: a\nlinear: base = (0); periods = (1)\n",
    "even.sls": "slset even\ndim: 1\nshape: a\nlinear: base = (0); periods = (2)\n",
}
CONTRACT_EXIT = {"proven": 0, "refuted": 1, "unknown": 3}
CONTRACT = [
    (["member", "fixture:anbn.ig", "aabb", "--exhaustive"], "proven"),
    (["member", "fixture:anbn.ig", "aab", "--exhaustive"], "refuted"),
    (["member", "fixture:anbn.ig", "aab"], "unknown"),
    (["min-index", "fixture:ramp.ig", "abaa", "--max-stack", "4", "--max-steps", "60"], "proven"),
    (["min-index", "fixture:anbn.ig", "ba", "--exhaustive"], "refuted"),
    (["min-index", "fixture:twin.ig", "aabbcc$aabbcc", "--max-stack", "3", "--hard-cap", "10"],
     "unknown"),
    (["check-uncontrolled", "fixture:anbn.ig", "--k", "1"], "proven"),
    (["check-uncontrolled", "fixture:ramp.ig", "--k", "3", "--max-stack", "5"], "refuted"),
    (["check-uncontrolled", "fixture:twin.ig", "--k", "7", "--max-steps", "5"], "unknown"),
    (["slset", "subset", "fixture:diag.sls", "fixture:quadrant.sls"], "proven"),
    (["slset", "subset", "fixture:quadrant.sls", "fixture:diag.sls"], "refuted"),
    (["slset", "equal", "fixture:diag.sls", "fixture:diag.sls"], "proven"),
    (["slset", "equal", "fixture:diag.sls", "fixture:quadrant.sls"], "refuted"),
    (["slset", "empty", "{tmp}/none.sls"], "proven"),
    (["slset", "empty", "fixture:diag.sls"], "refuted"),
    (["bounded", "subset", "fixture:twin.sls", "fixture:twin.sls", "--check-len", "14"], "proven"),
    (["bounded", "subset", "{tmp}/a.sls", "{tmp}/even.sls", "--check-len", "10"], "refuted"),
    (["bounded", "subset", "{tmp}/aa.sls", "{tmp}/a.sls", "--check-len", "10"], "unknown"),
    (["ncm", "run", "fixture:anbn.ncm", "aabb"], "proven"),
    (["ncm", "run", "fixture:anbn.ncm", "aab"], "refuted"),
    (["ncm", "run", "{tmp}/six.ncm", "_"], "unknown"),
]


@pytest.mark.parametrize("argv,kind", CONTRACT, ids=[f"{r[0][0]} {r[0][1]}-{r[1]}" for r in CONTRACT])
def test_exit_status_follows_the_kind(tmp_path, capsys, argv, kind):
    """Every decision command exits with the status of the kind of its
    answer, through one table, and reports a `status:` line on stdout only."""
    for name, text in CONTRACT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, blocks = run_clean(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == CONTRACT_EXIT[kind]
    assert "status" in blocks[0]
