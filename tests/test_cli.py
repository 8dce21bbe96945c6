"""Command-line surface: exit codes, report shape, file outputs."""

import pytest

from igkit import cli
from igkit.automata import parse_fsa
from igkit.cli import build_parser, main, parse_report

from util import SILENT_SIX


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, parse_report(out)


def test_validate_ok(capsys):
    code, blocks = run(capsys, "validate", "fixture:twin.ig")
    assert code == 0
    assert blocks[0]["status"] == "ok"
    assert blocks[0]["violations"] == "0"


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


@pytest.mark.parametrize("argv,name,text,line", [
    (["transform", "morph", "fixture:anbn.ig"], "bad.map",
     "morphism bad\nmap: a -> x _\nmap: b -> x\n", 2),
    (["transform", "morph", "fixture:anbn.ig"], "bad.map",
     "morphism bad\ntarget: x\nmap: a -> y\nmap: b -> x\n", 3),
    (["etol", "check-anf"], "bad.etol",
     "etol bad\naxiom: S\nterminals: a\ntable t:\nrule: S -> a _\n", 5),
], ids=["map-mixed-empty", "map-outside-target", "etol-mixed-empty"])
def test_unreadable_right_sides_are_input_errors(tmp_path, capsys, argv, name, text, line):
    """A morphism image or an ETOL rule that mixes `_` with letters, or a
    morphism image outside its `target:`, is rejected at its line; before,
    `transform morph` wrote a grammar that `validate` could not read."""
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
]


@pytest.mark.parametrize("argv,error", ERRORS, ids=["missing-input", "dir-input", "dir-out",
                                                  "no-max-len", "bad-int", "removed-flag",
                                                  "flag-prefix-etol", "flag-prefix-enumerate",
                                                  "negative-max-len", "negative-etol-max-len",
                                                  "negative-radius", "negative-enum-len",
                                                  "negative-check-len", "negative-counter-cap"])
def test_error_exit_code(tmp_path, capsys, argv, error):
    code, blocks = run_clean(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert len(blocks) == 1
    assert blocks[0]["command"] == argv[0] and blocks[0]["status"] == "error"
    assert blocks[0]["error"].startswith(error)



@pytest.mark.parametrize("argv,usage", [(["-h"], "igkit [-h]"),
                                        (["enumerate", "-h"], "igkit enumerate [-h]")],
                         ids=["top", "enumerate"])
def test_help_prints_and_returns_zero(capsys, argv, usage):
    code, blocks = run_clean(capsys, *argv)
    assert code == 0 and blocks[0]["usage"].startswith(usage)


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


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    def outcomes():
        got = []
        for argv in SEQUENCE:
            code = main([a.format(tmp=tmp_path) for a in argv])
            blocks = parse_report(capsys.readouterr().out)
            got.append((code, [{k: v for k, v in b.items() if k != "elapsed_s"}
                               for b in blocks]))
        return got

    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    reused = outcomes()
    assert len(builds) == 1
    assert [code for code, _ in reused[:7]] == [1, 3, 0, 0, 2, 2, 0]
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "_parser", build_parser)  # a fresh parser for every call
    assert outcomes() == reused

# commands that write a file: (argv, the file, enumerate flags for the output
# grammar, its words); a grammar must pass `validate`, an automaton `parse_fsa`
WRITERS = [
    (["ncm", "expand", "fixture:anbn.ncm"], "out.fsa", None, None),
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
                         ids=["ncm-expand", "synth-semilinear", "inv-morph", "normalize",
                              "inv-proj", "transduce-rename"])
def test_written_files_read_back(tmp_path, capsys, argv, name, flags, words):
    out = tmp_path / name
    code, blocks = run_clean(capsys, *argv, "--out", str(out))
    assert code == 0 and blocks[0]["status"] == "ok"
    if flags is None:
        nfa = parse_fsa(out.read_text(encoding="utf-8"))
        assert len(nfa.states) == int(blocks[0]["states"])
        return
    code, blocks = run_clean(capsys, "validate", str(out))
    assert code == 0 and blocks[0]["violations"] == "0"
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


def test_reports_parse_back(capsys):
    code = main(["enumerate", "fixture:eps.ig", "--max-len", "2", "--max-steps", "5"])
    text = capsys.readouterr().out
    blocks = parse_report(text)
    assert len(blocks) == 1
    assert set(blocks[0]) >= {"command", "input", "words", "exhausted", "status"}


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
