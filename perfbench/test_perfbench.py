"""The benchmark's own tests: reproducible plans and counts, and oracles that
catch wrong reports. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import SCHEDULES, Plan  # noqa: E402

DETERMINISTIC = ["kernel.expand_calls", "kernel.successors", "engine.forms", "engine.searches",
                 "closure.productions_out", "va.states", "counters.configs"]


def traced_run(workload, seed, out):
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1", "--result", str(out)],
        check=True, capture_output=True, timeout=300,
    )
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", sorted(SCHEDULES))
def test_same_seed_repeats_across_processes(workload, tmp_path):
    a = traced_run(workload, 7, tmp_path / "a.json")
    b = traced_run(workload, 7, tmp_path / "b.json")
    assert a["plan"] == b["plan"]
    assert [r["verdict"] for r in a["rows"]] == [r["verdict"] for r in b["rows"]]
    for name in DETERMINISTIC:
        assert a["metrics"][name] == b["metrics"][name], name
    assert a["mismatches"] == b["mismatches"] == []


@pytest.mark.parametrize("workload", sorted(SCHEDULES))
def test_other_seed_other_plan(workload, tmp_path):
    def calls(seed):
        d = tmp_path / str(seed)
        d.mkdir()
        return [q["calls"] for qs in Plan(workload, seed, d).rounds(3) for q in qs]

    assert calls(1) != calls(2)


def test_plan_has_no_repeated_query(tmp_path):
    plan = Plan("pipeline", 3, tmp_path)
    queries = [q for qs in plan.rounds(20) for q in qs]
    assert len({plan.key(q["calls"]) for q in queries}) == len(queries)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(SCHEDULES)


def _lang(base):
    return {"op": "grammar", "base": base, "rename": None}


# (argv, oracle spec, (old, new) text substitution that makes the report wrong)
CASES = [
    (["enumerate", "fixture:twin.ig", "--max-len", "7", "--max-stack", "2"],
     {"kind": "enumerate", "lang": _lang("twin.ig"), "max_len": 7, "stack": 2},
     ("words: $, abc$abc", "words: $")),
    (["enumerate", "fixture:anbncn.ig", "--max-len", "9", "--max-stack", "2"],
     {"kind": "enumerate", "lang": _lang("anbncn.ig"), "max_len": 9, "stack": 2},
     ("words: _, abc", "words: _, abc, aabbcc")),
    (["member", "fixture:anbncn.ig", "aabbcc", "--max-stack", "3"],
     {"kind": "member", "lang": _lang("anbncn.ig"), "grammar": "fixture:anbncn.ig",
      "word": list("aabbcc"), "stack": 3, "exhaustive": False},
     ("p8 @ 6 | a a b b c c", "p8 @ 6 | a a b c c c")),
    (["member", "fixture:anbncn.ig", "aabbc", "--max-stack", "3", "--exhaustive"],
     {"kind": "member", "lang": _lang("anbncn.ig"), "grammar": "fixture:anbncn.ig",
      "word": list("aabbc"), "stack": 3, "exhaustive": True},
     ("verdict: refuted", "verdict: unknown")),
    (["min-index", "fixture:ramp.ig", "abaa", "--max-stack", "2"],
     {"kind": "min-index", "lang": _lang("ramp.ig"), "grammar": "fixture:ramp.ig",
      "word": list("abaa"), "stack": 2, "width": None, "exhaustive": False},
     ("min_index: 3", "min_index: 4")),
    (["check-uncontrolled", "fixture:twin.ig", "--k", "5", "--max-stack", "2"],
     {"kind": "uncontrolled", "lang": _lang("twin.ig"), "grammar": "fixture:twin.ig", "k": 5},
     ("witness_width: 7", "witness_width: 6")),
    (["check-uncontrolled", "fixture:anbncn.ig", "--k", "3", "--max-stack", "4"],
     {"kind": "uncontrolled", "lang": _lang("anbncn.ig"), "grammar": "fixture:anbncn.ig",
      "k": 3},
     ("verdict: proven", "verdict: refuted")),
    (["etol", "enumerate", "fixture:abc.etol", "--max-len", "6"],
     {"kind": "etol", "base": "abc.etol", "rename": None, "max_len": 6, "width": None},
     ("words: _, abc, aabbcc", "words: _, abc")),
    (["ncm", "parikh-intersect", "fixture:anbn.ncm", "fixture:sigmastar_ab.ig",
      "--radius", "3", "--max-width", "6"],
     {"kind": "parikh", "machine": "anbn.ncm", "grammar": "sigmastar_ab.ig", "radius": 3},
     ("(1, 1)", "(1, 2)")),
    (["ncm", "run", "fixture:updown.ncm", "abaabb"],
     {"kind": "ncm-run", "machine": "updown.ncm", "word": list("abaabb")},
     ("outcome: accepted", "outcome: rejected")),
    (["bounded", "member", "fixture:twin.sls", "abc$abc"],
     {"kind": "bounded", "shape": list("abc$abc"), "word": "abc$abc",
      "sets": [[[[0, 0, 0, 1, 0, 0, 0], [[1, 1, 1, 0, 1, 1, 1]]]]]},
     ("member: true", "member: false")),
    (["slset", "subset", "fixture:quadrant.sls", "fixture:diag.sls"],
     {"kind": "slset", "op": "subset", "vector": None,
      "sets": [[[[0, 0], [[1, 0], [0, 1]]]], [[[0, 0], [[1, 1]]]]]},
     ("verdict: refuted", "verdict: proven")),
]


def _run_cli(argv):
    import igkit.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


@pytest.mark.parametrize("argv,spec,perturb", CASES, ids=[" ".join(c[0][:3]) for c in CASES])
def test_oracle_accepts_real_report_and_catches_perturbed_one(argv, spec, perturb, tmp_path):
    query = {"family": "test", "calls": [argv], "check": spec}
    grammars = oracles.Grammars(tmp_path)
    report, code = _run_cli(argv)
    assert oracles.check(query, [report], [code], grammars) == []
    old, new = perturb
    assert old in report
    assert oracles.check(query, [report.replace(old, new, 1)], [code], grammars)
