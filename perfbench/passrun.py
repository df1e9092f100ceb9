"""One benchmark pass, run by run.py in a fresh interpreter.

A fresh interpreter starts with every thetaforge cache empty, as a user's
one-off verification does.  The pass imports the program, generates the
workload's inputs from the seed (together: set-up), runs the workload's
checks, and prints one JSON line.  Modes: ``setup`` stops after set-up,
``run`` runs the checks untraced, ``trace`` runs them under the Tracer.
Set-up and checks are timed in wall and in CPU seconds of this process.
A pass also times the reference loop before and after its checks, and
between two checks once they have run REFERENCE_EVERY_S of CPU time since
the last timing, so run.py can tell how fast the machine ran the pass.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

REFERENCE_EVERY_S = 0.25


def peak_rss_mb():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    import gate
    import reference
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    checks = workloads.make_checks(args.workload, inputs)
    setup_s = time.monotonic() - args.launched
    record = {"setup_s": setup_s, "setup_cpu_s": time.process_time()}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    references = [reference.reference_s()]
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    span = tracer.span if tracer else None
    verify_s = verify_cpu_s = 0.0
    next_reference = REFERENCE_EVERY_S
    outcomes = []
    try:
        for check in checks:
            if verify_cpu_s >= next_reference:
                references.append(reference.sample_s())
                next_reference = verify_cpu_s + REFERENCE_EVERY_S
            cpu_start = time.process_time()
            wall_s, outcome = gate.run_checks([check], span=span)
            verify_cpu_s += time.process_time() - cpu_start
            verify_s += wall_s
            outcomes += outcome
    finally:
        if tracer:
            tracer.restore()
    references.append(reference.reference_s())
    record["verify_cpu_s"] = verify_cpu_s
    record["verify_s"] = verify_s
    record["reference_s"] = statistics.fmean(references)
    record["peak_rss_mb"] = peak_rss_mb()
    record["checks"] = gate.judge(outcomes, gate.load_digests(), args.workload, args.seed)
    if tracer:
        record["layers"] = tracer.layer_metrics()
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        record["spans"] = [
            [name, round(start - origin, 7), round(end - origin, 7), parent]
            for name, start, end, parent in tracer.spans
        ]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
