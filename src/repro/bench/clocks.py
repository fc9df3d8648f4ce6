"""Real-clock access for benchmarks.

FBS002 bans wall-clock reads outside ``repro.bench``: protocol and
simulation code must take the simulated clock so every experiment is
reproducible.  Benchmarks, by definition, measure the real machine, so
this module is the one sanctioned place that touches :mod:`time`.

The scale-out load engine (:mod:`repro.load`) imports these helpers
*lazily and only in timing mode*: its canonical, byte-stable reports
are built purely from simulated time, and only the cost budget
(``benchmarks/budget/``, its ``load.*`` rows) turns timing on.
"""

from __future__ import annotations

import time

__all__ = ["process_cpu_seconds", "wall_seconds"]


def process_cpu_seconds() -> float:
    """CPU seconds consumed by this process (user + system).

    Per-shard CPU cost is hardware-independent (a 1-core CI runner
    time-slicing 4 workers reports the same per-worker CPU cost as a
    4-core box running them concurrently); the budget's
    ``cpu_us_per_datagram`` is read from here.
    """
    return time.process_time()


def wall_seconds() -> float:
    """A monotonic wall-clock reading (recorded for transparency only)."""
    return time.perf_counter()
