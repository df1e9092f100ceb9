"""Write perfbench/baseline.json from a result set: python3 perfbench/baseline.py RUNS.jsonl

RUNS.jsonl is a runs.jsonl written by run.py: untraced runs give the
end-to-end rows, and the last traced run of each workload gives its
per-layer values and, from its trace file beside RUNS.jsonl, each span's
share of all self time.  The program commit the runs were made at, the
Python version and the machine are recorded with them; a set of runs from
more than one commit is refused.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys

import compare
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def self_time_shares(passes):
    """Median over traced passes of each span's self time over all self time."""
    shares = []
    for spans in passes:
        totals = {name: self_s for name, (_, self_s) in tracer.self_times(spans).items()}
        whole = sum(totals.values())
        shares.append({name: t / whole for name, t in totals.items()})
    names = sorted({n for s in shares for n in s}, key=lambda n: -shares[0].get(n, 0.0))
    return {n: statistics.median(s.get(n, 0.0) for s in shares) for n in names}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(argv[0]) as fh:
        records = [json.loads(line) for line in fh if line.strip()]

    labels = sorted({compare.commit_label(r) for r in records})
    if len(labels) != 1 or labels[0] == "unknown":
        print(f"runs must all come from one known program commit, not: {', '.join(labels)}",
              file=sys.stderr)
        return 1

    end_to_end = {}
    for workload, runs in compare.load_runs(argv[0]).items():
        rows = {}
        for m in bench["end_to_end"]:
            med, q1, q3 = compare.stats([r["metrics"][m["name"]] for r in runs])
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "unit": m["unit"]}
        rows["runs"] = len(runs)
        rows["seeds"] = [r["seed"] for r in runs]
        rows["checks_failed"] = sum(r["failed"] for r in runs)
        rows["checks_attempted"] = sum(r["attempted"] for r in runs)
        rows["digests_compared"] = sum(r["digests_compared"] for r in runs)
        end_to_end[workload] = rows

    per_layer, shares = {}, {}
    for rec in records:
        if rec["trace"]:
            w = rec["workload"]
            per_layer[w] = {"seed": rec["seed"], **rec["metrics"]}
            path = os.path.join(os.path.dirname(argv[0]), f"trace-{w}-seed{rec['seed']}.json")
            with open(path) as fh:
                shares[w] = self_time_shares(json.load(fh)["passes"])

    baseline = {
        "about": "Baseline of the program at program_commit, measured with this benchmark. "
                 "end_to_end: median, quartiles and spread ((q3-q1)/median) over untraced "
                 "runs of each run's value; times are CPU seconds at the reference loop's "
                 "machine speed (reference.py). per_layer: the last traced run of each workload. "
                 "self_time_share: median over its traced passes of each span's self time "
                 "over all self time ('check:*' spans hold time outside any wrapped layer).",
        "program_commit": records[0]["program_commit"],
        "program_dirty": records[0]["program_dirty"],
        "python": platform.python_version(),
        "machine": {"system": platform.system(), "arch": platform.machine(),
                    "cpu": cpu_model(), "cpus": os.cpu_count()},
        "run_seconds": bench["run_seconds"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "self_time_share": shares,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
