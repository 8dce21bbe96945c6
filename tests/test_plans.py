"""The benchmark's query plans, run through `igkit.cli.main` and checked by
the benchmark's own oracles (perfbench/oracles.py), which never call the
search engine: every report of ten rounds of each workload, at two seeds,
must be right. Every command line of those rounds must also be read by its
command row, as `main` reads it, as argparse's parser of every command (the
tests' oracle, tests/util.py) parses it.
The plan and the oracles are imported from perfbench/ as they are."""

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

from igkit import cli

from util import Help, build_parser, parsed_fields

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's `oracles` module and `Plan` class. Its modules import each
    other by bare name, so its directory is on sys.path, and they are in
    sys.modules, only while they load: no later bare import can find them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("oracles"), importlib.import_module("workloads").Plan
    finally:
        sys.path.remove(str(PERFBENCH))
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[name]


@pytest.mark.parametrize("seed", [1201, 7])
@pytest.mark.parametrize("workload", ["derive", "width", "pipeline"])
def test_plan_reports_pass_the_oracles(workload, seed, bench, tmp_path, monkeypatch):
    oracles, Plan = bench
    monkeypatch.chdir(tmp_path)  # the plan's inputs and the commands' outputs live here
    grammars = oracles.Grammars(tmp_path)
    problems = []
    for query in (q for qs in Plan(workload, seed, tmp_path).rounds(10) for q in qs):
        reports, codes = [], []
        for argv in query["calls"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(argv))
            reports.append(out.getvalue())
        problems += [f"{' | '.join(map(' '.join, query['calls']))}: {p}"
                     for p in oracles.check(query, reports, codes, grammars)]
    assert problems == []


def parsed(parse, argv):
    """The fields `parse` gives `argv` (`parsed_fields`), the usage error it
    raises, or "help"."""
    try:
        args = parse(argv)
    except cli.UsageError as exc:
        return str(exc)
    except Help:
        return "help"
    return "help" if args is None else parsed_fields(args)


@pytest.mark.parametrize("seed", [1201, 7])
@pytest.mark.parametrize("workload", ["derive", "width", "pipeline"])
def test_plan_command_lines_parse_as_in_the_full_parser(workload, seed, bench, tmp_path):
    """Each command line of the plans gets from its row, as `main` reads it,
    what argparse's parser of every command (the tests' oracle) gives it."""
    _, Plan = bench
    full = build_parser()
    argvs = [argv for qs in Plan(workload, seed, tmp_path).rounds(10) for q in qs
             for argv in q["calls"]]
    assert argvs
    for argv in argvs:
        assert parsed(cli._parse, argv) == parsed(full.parse_args, argv), argv
