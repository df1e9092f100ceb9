"""Compare two result sets of the benchmark, or summarise one.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

A result set is a runs.jsonl written by run.py (one JSON record per run);
only untraced runs are read.  With one set, each workload x end-to-end
metric row gives the median, quartiles and run-to-run spread (quartile
distance over median) against the metric's bound.  With two sets, each row
gives both sides' median and quartiles, the share of pairs the change won
(runs paired by seed; ties count for neither side), the ratio of medians
with its base, and a verdict:

- improved: the change wins at least 90% of pairs and the medians differ by
  more than the base's own quartile distance;
- regressed: the change's median is worse by more than the bound, and
  either every run of the change reads worse than every run of the base or
  both spreads are within the bound;
- unresolved: otherwise, when either side's spread is wider than the
  bound, unless every run of the change reads better than every run of the
  base;
- no worse: otherwise.

Each side's program commits are printed first; a set that mixes commits is
flagged, as its runs do not measure one program.
"""
from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    """{workload: [run record, ...]} for the untraced runs of a result set."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def commit_label(rec):
    """The program commit a run record was measured at, as a short label."""
    commit = rec.get("program_commit")
    if not commit:
        return "unknown"
    return commit[:12] + ("+dirty" if rec.get("program_dirty") else "")


def commits(runs):
    return sorted({commit_label(r) for recs in runs.values() for r in recs})


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def pair(base, change):
    """Pairs of (base, change) records with the same seed, in the order each side ran them."""
    by_seed = {}
    for r in base:
        by_seed.setdefault(r["seed"], []).append(r)
    pairs = []
    for r in change:
        if by_seed.get(r["seed"]):
            pairs.append((by_seed[r["seed"]].pop(0), r))
    return pairs


def verdict(metric, base_vals, change_vals, pairs):
    lower = metric["better"] == "lower"
    bmed, bq1, bq3 = stats(base_vals)
    cmed, cq1, cq3 = stats(change_vals)

    def better(c, b):
        return c < b if lower else c > b

    wins = sum(better(c, b) for b, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    worse_by = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    spread = max((bq3 - bq1) / bmed, (cq3 - cq1) / cmed)
    all_better = all(better(c, b) for c in change_vals for b in base_vals)
    all_worse = all(better(b, c) for c in change_vals for b in base_vals)
    if share >= 0.9 and better(cmed, bmed) and abs(cmed - bmed) > bq3 - bq1:
        return "improved", share
    if all_worse and worse_by > metric["bound"]:
        return "regressed", share
    if spread > metric["bound"] and not all_better:
        return "unresolved", share
    if worse_by > metric["bound"]:
        return "regressed", share
    return "no worse", share


def fmt(med, q1, q3):
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(path, metrics):
    runs = load_runs(path)
    print(f"commit: {', '.join(commits(runs))}")
    print("workload | metric | runs | median [q1, q3] | spread | bound")
    for workload, recs in sorted(runs.items()):
        for m in metrics:
            vals = [r["metrics"][m["name"]] for r in recs]
            med, q1, q3 = stats(vals)
            print(f"{workload} | {m['name']} | {len(vals)} | {fmt(med, q1, q3)} {m['unit']} | "
                  f"{(q3 - q1) / med:.2%} | {m['bound']:.0%}")


def compare(base_path, change_path, metrics):
    base, change = load_runs(base_path), load_runs(change_path)
    for side, runs in (("base", base), ("change", change)):
        labels = commits(runs)
        flag = "  (mixed: not one program)" if len(labels) > 1 else ""
        print(f"{side} commit: {', '.join(labels)}{flag}")
    print("workload | metric | base median [q1, q3] | change median [q1, q3] | "
          "pairs won by change | change/base | verdict")
    for workload in sorted(set(base) & set(change)):
        pairs = pair(base[workload], change[workload])
        for m in metrics:
            name = m["name"]
            bvals = [r["metrics"][name] for r in base[workload]]
            cvals = [r["metrics"][name] for r in change[workload]]
            value_pairs = [(b["metrics"][name], c["metrics"][name]) for b, c in pairs]
            result, share = verdict(m, bvals, cvals, value_pairs)
            bmed = stats(bvals)[0]
            print(f"{workload} | {name} | {fmt(*stats(bvals))} | {fmt(*stats(cvals))} | "
                  f"{share:.0%} of {len(value_pairs)} | "
                  f"{stats(cvals)[0] / bmed:.3f} of base {bmed:.4g} {m['unit']} | {result}")
    for workload in sorted(set(base) ^ set(change)):
        print(f"{workload}: only in one result set, not compared")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    if len(argv) == 1:
        summarize(argv[0], metrics)
    else:
        compare(argv[0], argv[1], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
