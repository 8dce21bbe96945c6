"""One timed pass over a query plan, in a fresh process.

    python3 perfbench/worker.py PLAN RESULT (--seconds S | --rounds N) [--spans FILE]

Imports igkit from the checkout's `src/`, runs whole rounds of the plan
(a JSON list of queries per line) through `igkit.cli.main` in a closed loop
(one client, the next query starts when the previous one returns) until S
seconds have passed or N rounds are done. Each query's wall time, exit
codes, reports and any escaped exception go to RESULT.rows, one JSON line per
query as it completes, so the worker's memory does not grow with the number
of queries and its peak RSS is the program's; the pass summary goes to
RESULT. With --spans the pass is traced and the spans are written to FILE at
exit. The working directory must be the plan's work directory, where its
input files are.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("result")
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--rounds", type=int)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import igkit.cli as cli
    import_s = time.perf_counter() - t0
    from igkit import kernel

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"igkit imported from {cli.__file__}, not from this checkout")

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    done = 0
    start = time.perf_counter()
    with open(args.plan, encoding="utf-8") as plan, \
            open(args.result + ".rows", "w", encoding="utf-8") as rows:
        for line in plan:
            if done == args.rounds or (
                    args.seconds is not None and time.perf_counter() - start >= args.seconds):
                break
            for q in json.loads(line):
                reports, codes, failed = [], [], None
                t = time.perf_counter()
                for argv in q["calls"]:
                    out = io.StringIO()
                    try:
                        with contextlib.redirect_stdout(out):
                            codes.append(cli.main(argv))
                    except Exception as exc:  # an escaped exception fails the query
                        failed = f"{type(exc).__name__}: {exc}"
                        break
                    finally:
                        reports.append(out.getvalue())
                ms = (time.perf_counter() - t) * 1000.0
                if tracer is not None:
                    tracer.end_query()
                rows.write(json.dumps({"family": q["family"], "ms": ms, "codes": codes,
                                       "reports": reports, "failed": failed}) + "\n")
            done += 1
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "wall_s": wall,
        "rounds": done,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "implementation": kernel.IMPLEMENTATION,
        "python": sys.version.split()[0],
    }
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    if tracer is not None:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
