#!/usr/bin/env python3
"""CLI-level benchmark for igkit.

    python3 perfbench/run.py --workload {derive,width,pipeline,all} --seed N \
        --seconds S --trace {0,1} [--result FILE]

Run from anywhere; the program is imported from the `src/` next to this
directory. Each run generates a query plan from the seed (fixture variants
with renamed terminals and shuffled productions, morphisms, automata,
semilinear sets; see workloads.py), then drives `igkit.cli.main` in a fresh
worker process: one closed-loop client, single-threaded. Every report is
checked against an independent oracle (oracles.py); a mismatch makes the run
print `"correct": false` and exit 1.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh `import igkit.cli` processes), queries per second, latency p50 and p90,
peak RSS, and the share of queries with a definite answer; it reports the
share of queries where an exception escaped `cli.main` as well.
--trace 1 runs a fixed number of rounds twice, untraced and traced, each in
its own process, and reports per-layer self times and counts (tracing.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full result, with
metadata and one row per query, goes to FILE (default
`.perfbench-out/<workload>-seed<N>-trace<T>.json`). `--workload all` runs the
three workloads in turn, prints each one's line, and ends with a line whose
metrics are named `<workload>/<metric>`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles
import tracing
from workloads import Plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Whole rounds per second of the pure-Python kernel at the commit that added
# this benchmark (2-CPU container, Python 3.11). They size the traced passes
# (a fixed number of rounds, about half of --seconds, so their counts repeat
# exactly) and the plan of the timed pass (three times the rounds it is
# expected to need).
ROUNDS_PER_SECOND = {"derive": 2.8, "width": 3.3, "pipeline": 6.0}
SETUP_SAMPLES = 11
DEADLINE_S = 170.0
# Address-space cap for this process and every process it starts, so a
# runaway search or oracle fails alone instead of starving the machine.
MEMORY_CAP = 2 << 30

END_TO_END = [
    ("setup_s", "s"), ("queries_per_s", "1/s"), ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"), ("peak_rss_mb", "MB"), ("decided_ratio", "ratio"),
]
PER_LAYER = [
    ("cli.self_s", "s"), ("grammar.parse_s", "s"), ("grammar.parse_calls", "count"),
    ("grammar.render_s", "s"), ("engine.search_self_s", "s"), ("engine.searches", "count"),
    ("engine.forms", "count"), ("engine.useful_ratio", "ratio"), ("engine.compile_s", "s"),
    ("engine.compile_calls", "count"), ("engine.decode_s", "s"),
    ("engine.decode_calls", "count"), ("engine.stack_pool", "count"),
    ("kernel.expand_s", "s"), ("kernel.expand_calls", "count"), ("kernel.successors", "count"),
    ("closure.construct_s", "s"), ("closure.calls", "count"),
    ("closure.productions_out", "count"), ("automata.determinize_s", "s"),
    ("automata.dfa_states", "count"), ("semilinear.decide_s", "s"), ("va.build_s", "s"),
    ("va.search_s", "s"), ("va.states", "count"), ("etol.search_s", "s"),
    ("etol.words_seen", "count"), ("counters.build_s", "s"), ("counters.nfa_states", "count"),
    ("counters.run_s", "s"), ("counters.configs", "count"), ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class BenchError(Exception):
    pass


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def deadline_left(start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 5:
        raise BenchError("out of time")
    return left


def measure_setup(env: dict, start: float, samples: int) -> list[float]:
    """Seconds from `import igkit.cli` to its return, each in a fresh
    process; one unmeasured import first writes the bytecode cache."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import igkit.cli; print(repr(time.perf_counter() - t))")
    times = []
    for i in range(samples + 1):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=deadline_left(start))
        if out.returncode != 0:
            raise BenchError(f"import igkit.cli failed:\n{out.stderr}")
        if i:
            times.append(float(out.stdout))
    return times


def run_worker(work: Path, env: dict, start: float, name: str, limit: list[str],
               spans: bool = False) -> dict:
    result = work / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(work / "plan.jsonl"), str(result)] + limit
    if spans:
        cmd += ["--spans", str(work / f"{name}.spans")]
    try:
        out = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                             timeout=deadline_left(start))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"{name} pass overran the deadline")
    if out.returncode != 0:
        raise BenchError(f"{name} pass failed:\n{out.stderr[-2000:]}")
    res = json.loads(result.read_text(encoding="utf-8"))
    with open(f"{result}.rows", encoding="utf-8") as f:
        res["rows"] = [json.loads(line) for line in f]
    return res


def classify(rows: list[dict]) -> None:
    for r in rows:
        r["verdict"] = "failed" if r["failed"] else oracles.verdict(
            oracles.parse_report(r["reports"][-1]))


def check_rows(rows, queries, work) -> list[str]:
    grammars = oracles.Grammars(work)
    problems = []
    for i, (r, q) in enumerate(zip(rows, queries)):
        if r["failed"]:
            continue
        for p in oracles.check(q, r["reports"], r["codes"], grammars):
            problems.append(f"query {i} ({q['family']}: {' | '.join(map(' '.join, q['calls']))}): {p}")
    return problems


def end_to_end(res: dict, setup: list[float]) -> dict:
    rows = res["rows"]
    ms = [r["ms"] for r in rows]
    n = len(rows)
    return {
        "setup_s": statistics.median(setup),
        "queries_per_s": n / res["wall_s"],
        "latency_ms.p50": statistics.median(ms),
        "latency_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "peak_rss_mb": res["peak_rss_mb"],
        "decided_ratio": sum(r["verdict"] in oracles.DECIDED for r in rows) / n,
    }


def per_layer(base: dict, traced: dict, spans_file: Path) -> dict:
    layers = tracing.analyze(tracing.load(str(spans_file)))
    self_total = sum(layers[m] for m in tracing.SELF_METRIC.values())
    if not math.isclose(self_total, layers["trace.wall_s"], rel_tol=1e-6, abs_tol=1e-9):
        raise BenchError(f"self times add up to {self_total}, traced wall {layers['trace.wall_s']}")
    layers["trace.overhead_ratio"] = (sum(r["ms"] for r in traced["rows"])
                                      / sum(r["ms"] for r in base["rows"]))
    return layers


def families(rows) -> dict:
    out = {}
    for fam in sorted({r["family"] for r in rows}):
        sub = [r for r in rows if r["family"] == fam]
        out[fam] = {
            "queries": len(sub),
            "median_ms": statistics.median(r["ms"] for r in sub),
            "verdicts": dict(Counter(r["verdict"] for r in sub)),
        }
    return out


def bench(workload: str, seed: int, seconds: float, trace: int, out_file: Path):
    """One run: returns (exit status, last output line or None)."""
    start = time.monotonic()
    if not (SRC / "igkit" / "cli.py").is_file():
        return fail(f"no igkit sources under {SRC}"), None

    work = OUT / f"work-{os.getpid()}"
    # Same seed, same string hashing: set iteration order, and with it every
    # count, repeats between processes.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4294967296))
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        setup = measure_setup(env, start, 0 if trace else SETUP_SAMPLES)
        rate = ROUNDS_PER_SECOND[workload]
        traced_rounds = max(2, round(seconds * rate / 2))
        plan = Plan(workload, seed, work)
        rounds = plan.rounds(traced_rounds if trace else math.ceil(3 * seconds * rate) + 2)
        with open(work / "plan.jsonl", "w", encoding="utf-8") as f:
            for qs in rounds:
                f.write(json.dumps([{"family": q["family"], "calls": q["calls"]} for q in qs]))
                f.write("\n")
        if trace == 0:
            passes = {"timed": run_worker(work, env, start, "timed", ["--seconds", str(seconds)])}
        else:
            limit = ["--rounds", str(traced_rounds)]
            passes = {"untraced": run_worker(work, env, start, "untraced", limit),
                      "traced": run_worker(work, env, start, "traced", limit, spans=True)}
        queries = [q for qs in rounds for q in qs]
        problems = []
        for res in passes.values():
            classify(res["rows"])
            problems += check_rows(res["rows"], queries, work)
        main_pass = passes["timed" if trace == 0 else "traced"]
        rows = main_pass["rows"]
        if not rows:
            raise BenchError("the pass ran no query")
        if trace == 0:
            metrics, units = end_to_end(main_pass, setup), dict(END_TO_END)
            if len(rows) == len(queries):
                print("perfbench: the plan ran out before the time did", file=sys.stderr)
        else:
            metrics = per_layer(passes["untraced"], main_pass, work / "traced.spans")
            units = dict(PER_LAYER)
    except BenchError as exc:
        return fail(str(exc)), None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in rows if r["failed"])
    ran = queries[:len(rows)]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "implementation": main_pass["implementation"],
        "python": main_pass["python"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "hash_seed": env["PYTHONHASHSEED"],
        "client": "closed loop, 1 client, single-threaded",
        "rounds": main_pass["rounds"],
        "queries": len(rows),
        "failed": failed,
        "failed_ratio": failed / len(rows),
        "family_mix": dict(Counter(r["family"] for r in rows)),
        **plan.input_repeats(ran),
        "setup_samples_s": setup,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "families": families(rows),
        "mismatches": problems,
        "rows": [{"family": r["family"], "ms": r["ms"], "verdict": r["verdict"]} for r in rows],
        "plan": [q["calls"] for q in ran],
    }
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"igkit perfbench: workload {workload}, seed {seed}, "
          f"{'traced' if trace else 'untraced'}, kernel {result['implementation']}, "
          f"Python {result['python']}, nproc {result['nproc']}")
    print(f"{len(rows)} queries in {result['rounds']} rounds; inputs: "
          f"{result['inputs_distinct']} distinct, {result['input_repeats']} of "
          f"{result['input_uses']} uses repeat an earlier one")
    for fam, f in result["families"].items():
        print(f"  {fam:16s} {f['queries']:4d} queries  median {f['median_ms']:8.2f} ms  "
              f"{f['verdicts']}")
    print(f"  {'failed_ratio':24s} {result['failed_ratio']:.4f} ratio "
          f"({failed} of {len(rows)} queries raised out of cli.main)")
    for k, u in units.items():
        print(f"  {k:24s} {metrics[k]:.6g} {u}")
    for p in problems[:20]:
        print(f"MISMATCH {p}")
    print(f"result: {out_file}")
    line = {"correct": not problems, "attempted": len(rows), "failed": failed,
            "metrics": result["metrics"]}
    return (1 if problems else 0), line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS_PER_SECOND) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, help="result file of a single workload")
    args = ap.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    sys.path.insert(0, str(SRC))
    workloads = sorted(ROUNDS_PER_SECOND) if args.workload == "all" else [args.workload]
    code, lines = 0, {}
    for w in workloads:
        out_file = args.result if args.result and len(workloads) == 1 else (
            OUT / f"{w}-seed{args.seed}-trace{args.trace}.json")
        rc, line = bench(w, args.seed, args.seconds, args.trace, out_file)
        code = max(code, rc)
        if line is None:
            return code
        lines[w] = line
        if len(workloads) > 1:
            print(json.dumps(line))
    print(json.dumps({
        "correct": all(x["correct"] for x in lines.values()),
        "attempted": sum(x["attempted"] for x in lines.values()),
        "failed": sum(x["failed"] for x in lines.values()),
        "metrics": lines[workloads[0]]["metrics"] if len(workloads) == 1 else {
            f"{w}/{k}": v for w, x in lines.items() for k, v in x["metrics"].items()},
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
