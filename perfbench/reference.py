"""A fixed reference loop that gauges how fast this machine runs Python now.

On a shared host the CPU speed a process gets drifts by a third or more
over minutes, and it moves the reference loop and the program alike.  The
loop uses only the standard library, so no change to the program can move
it: run.py scales the program's CPU seconds by NOMINAL_S over the loop's
measured seconds, which reports them as seconds on a machine where the loop
takes NOMINAL_S.  The loop does what the program mostly does: dense
integer polynomial products and gcd normalisation of coefficient vectors.
"""
from __future__ import annotations

import statistics
import time
from math import gcd

NOMINAL_S = 0.04  # about the loop's CPU time on a 2-vCPU Xeon host under Python 3.11
REPS = 5
_ROUNDS = 140


def _loop():
    a = [(i * 7919) % 97 - 48 for i in range(48)]
    b = [(i * 104729) % 89 - 44 for i in range(48)]
    for _ in range(_ROUNDS):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        g = 0
        for c in out:
            g = gcd(g, c)
        a = [c // (g or 1) % 1000003 - 500001 for c in out[:48]]
    return a


def sample_s():
    """CPU seconds of one run of the loop."""
    start = time.process_time()
    _loop()
    return time.process_time() - start


def reference_s():
    """Median CPU seconds of one run of the loop, over REPS runs."""
    return statistics.median(sample_s() for _ in range(REPS))
