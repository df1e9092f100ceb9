"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs passes of one workload one after another, each in a fresh interpreter
(passrun.py), for about S seconds, and prints one JSON object as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics of
untraced passes: set-up and checks are timed in CPU seconds of the pass
process and scaled by the reference loop (reference.py), so they read as
seconds at one fixed machine speed.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics, including the tracing
overhead, in wall seconds.  Every run is appended to perfbench/out/runs.jsonl
(the spans of a traced run go to perfbench/out/trace-<workload>-seed<N>.json)
for compare.py.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import compare
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PROGRAM = os.path.join(ROOT, "src", "thetaforge")

SETUP_LAUNCHES = 5  # set-up-only interpreters per run, besides each pass's own set-up
MIN_PASSES = 3  # per kind of pass, even when one pass outlasts --seconds
PASS_TIMEOUT_S = 150
# Which statistic over a run's passes each end-to-end metric reports.  On a
# shared host the CPU can switch between a fast and a slow state for seconds
# at a time; a median over passes then jumps between the two states, while
# the mean follows the share of time spent in each, so verify_s is a mean.
RUN_STATISTIC = {"verify_s": "mean", "setup_s": "median", "peak_rss_mb": "median"}


def program_commit():
    """(HEAD commit, whether src/ differs from it), or (None, None) outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head, bool(status.strip())


def launch(workload, seed, mode):
    """Run passrun.py in a fresh interpreter and return its JSON record."""
    cmd = [
        sys.executable, os.path.join(HERE, "passrun.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--launched", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} pass of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    median, q1, q3 = compare.stats(values)
    return {"mean": statistics.fmean(values), "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


def measure(workload, seed, seconds, modes):
    """Set-up launches, then passes cycling through ``modes`` for ``seconds``."""
    launch(workload, seed, "setup")  # untimed: writes bytecode caches
    start = time.monotonic()
    setups = [launch(workload, seed, "setup")["setup_cpu_s"] for _ in range(SETUP_LAUNCHES)]
    passes = []
    pass_start = time.monotonic()
    while True:
        passes.append(launch(workload, seed, modes[len(passes) % len(modes)]))
        now = time.monotonic()
        per_pass = (now - pass_start) / len(passes)
        if len(passes) >= MIN_PASSES * len(modes) and now - start + per_pass > seconds:
            break
    return setups, passes


def layer_metrics(traced, untraced):
    """Per-layer values: the lower median over traced passes, so counts stay whole."""
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median_low(p["layers"][name] for p in traced)
    values["trace.overhead_s"] = (
        statistics.fmean(p["verify_s"] for p in traced)
        - statistics.fmean(p["verify_s"] for p in untraced)
    )
    return values


def missing_layers(workload, metrics, layers):
    """Metrics the layer map expects to be exercised on this workload but were not."""
    missing = []
    for name, info in layers["metrics"].items():
        entry = info.get("entry")
        if entry and workload in info["on"] and not metrics.get(entry + "_calls"):
            missing.append(name)
    return missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PROGRAM, "rt_torus.py")):
        print(f"program source not found under {PROGRAM}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    modes = ("run", "trace") if args.trace else ("run",)
    setups, passes = measure(args.workload, args.seed, args.seconds, modes)
    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    results = [c for p in passes for c in p["checks"]]
    failed = [c for c in results if not c["ok"]]

    # CPU seconds at the machine speed the reference loop names (reference.py).
    scale = reference.NOMINAL_S / statistics.fmean(p["reference_s"] for p in passes)
    stats = {
        "verify_s": summarize([p["verify_cpu_s"] * scale for p in untraced]),
        "setup_s": summarize([s * scale for s in setups + [p["setup_cpu_s"] for p in passes]]),
        "peak_rss_mb": summarize([p["peak_rss_mb"] for p in untraced]),
    }
    if args.trace:
        metrics = layer_metrics(traced, untraced)
        with open(os.path.join(HERE, "layers.json")) as fh:
            missing = missing_layers(args.workload, metrics, json.load(fh))
        if missing:
            print(f"traced run recorded no calls for: {', '.join(missing)}", file=sys.stderr)
            return 1
        names = [m["name"] for m in bench["per_layer"]]
    else:
        metrics = {name: s[RUN_STATISTIC[name]] for name, s in stats.items()}
        names = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    commit, dirty = program_commit()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "program_commit": commit, "program_dirty": dirty,
        "seconds": args.seconds, "python": sys.version.split()[0],
        "stats": stats, "metrics": {n: metrics[n] for n in names},
        "pass_verify_s": [p["verify_s"] for p in untraced],
        "pass_verify_cpu_s": [p["verify_cpu_s"] for p in untraced],
        "reference_scale": scale,
        "attempted": len(results), "failed": len(failed),
        "digests_compared": sum(c["digest_compared"] for c in results),
        "failures": failed[:20],
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if traced:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "passes": [p["spans"] for p in traced]}, fh)

    for name, s in stats.items():
        print(f"{name}: mean {s['mean']:.6g}  median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n {s['n']}  (reported: {RUN_STATISTIC[name]})")
    print(f"reference loop: scale {scale:.4g} (CPU seconds x {reference.NOMINAL_S} / loop seconds); "
          f"untraced wall verify_s mean {statistics.fmean(record['pass_verify_s']):.6g}")
    print(f"fail_ratio: {len(failed)}/{len(results)} checks failed "
          f"({record['digests_compared']} digests compared)")
    for c in failed[:5]:
        print(f"FAILED {c['check']}: {c['error']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
