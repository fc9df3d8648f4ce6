"""Violating fixture for FBS002: wall-clock reads in simulation code.

Linted as if it lived at ``src/repro/netsim/badclock.py`` (the same
source is quiet under a ``src/repro/bench/`` logical path).
"""

# fbslint: module=repro.netsim.badclock
import time
from datetime import datetime


def now_wall():
    started = time.time()  # banned
    tick = time.monotonic()  # banned
    stamp = datetime.now()  # banned (argless)
    return started, tick, stamp


def time_batch(kernel, lanes):
    # Timing vector kernels belongs in repro.bench, not the datapath.
    t0 = time.perf_counter()  # banned
    kernel(lanes)
    return t0


class Stamped:
    created = time.time()  # banned: a class body runs at import

    def __init__(self, now=lambda: time.monotonic()):  # banned: lambda body
        self.now = now


def stamp(body, at=time.time()):  # banned: a default value runs at import
    return body, at
