"""Record the gate's digests: python3 perfbench/record_digests.py

Runs every workload's checks at seeds 0..63 in this process and writes
digests.json.  A digest is recorded only when its identity holds, and a
check marked unseeded must give the same digest at every seed.  Re-record
only when the paper-fixed values themselves are meant to change.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import workloads  # noqa: E402

RECORDED_SEEDS = range(64)


def record(workload, seeds):
    fixed, seeded = {}, {}
    for seed in seeds:
        checks = workloads.make_checks(workload, workloads.make_inputs(workload, seed))
        _, outcomes = gate.run_checks(checks)
        per_seed = {}
        for check, ok, payload, error in outcomes:
            if not ok:
                raise SystemExit(f"{workload} seed {seed} {check.name}: {error}")
            if payload is None:
                continue
            d = gate.digest(payload)
            if check.seeded:
                per_seed[check.name] = d
            elif fixed.setdefault(check.name, d) != d:
                raise SystemExit(f"{workload} {check.name} is marked unseeded but varies with seed")
        seeded[str(seed)] = per_seed
        print(f"{workload} seed {seed}: {len(per_seed)} seeded digests", file=sys.stderr)
    return {"fixed": fixed, "seeded": seeded}


def main():
    table = {w: record(w, RECORDED_SEEDS) for w in workloads.WORKLOADS}
    with open(gate.DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
