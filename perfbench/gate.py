"""Exact-result gate: run a workload's checks and compare output digests.

A check fails when its identity is false, when it raises, or when the
digest of its payload differs from the one recorded for it.  Checks whose
inputs do not depend on the seed have one recorded digest; seeded checks
have digests recorded per seed, and at a seed with no recording only their
identities are checked.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def canonical(value):
    """JSON-ready form of a payload; exact scalars go through their to_json view."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"payload holds a {type(value).__name__}, which has no exact digest")


def digest(payload):
    text = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_digests(path=DIGESTS_PATH):
    with open(path) as fh:
        return json.load(fh)


def expected_digest(recorded, workload, seed, check):
    """(known, digest): the recorded digest of a check, if one applies."""
    table = recorded.get(workload, {})
    if not check.seeded:
        return True, table.get("fixed", {}).get(check.name)
    per_seed = table.get("seeded", {}).get(str(seed))
    if per_seed is None:
        return False, None
    return True, per_seed.get(check.name)


def run_checks(checks, span=None):
    """Run checks in order; returns (verify_seconds, outcomes).

    Each outcome is (check, ok, payload, error).  Only the checks themselves
    are timed; payloads are hashed afterwards by ``judge``.
    """
    span = span or (lambda name: contextlib.nullcontext())
    outcomes = []
    start = time.perf_counter()
    for check in checks:
        with span("check:" + check.name):
            try:
                ok, payload = check.fn()
            except Exception as exc:  # a raising check is a failed check
                outcomes.append((check, False, None, f"{type(exc).__name__}: {exc}"))
                continue
        outcomes.append((check, bool(ok), payload, None if ok else "identity is false"))
    return time.perf_counter() - start, outcomes


def judge(outcomes, recorded, workload, seed):
    """Apply the digest gate; returns a list of per-check result dicts."""
    results = []
    for check, ok, payload, error in outcomes:
        got = None
        compared = False
        if ok:
            if payload is not None:
                got = digest(payload)
                known, want = expected_digest(recorded, workload, seed, check)
                if known:
                    compared = True
                    if want is None:
                        ok, error = False, "no digest recorded for this check"
                    elif got != want:
                        ok, error = False, f"digest {got} != recorded {want}"
        results.append(
            {"check": check.name, "ok": ok, "error": error, "digest": got,
             "digest_compared": compared}
        )
    return results
