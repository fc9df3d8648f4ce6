"""Real-clock access for benchmarks.

Wall-clock reads stay out of protocol and simulation code: it takes
the simulated clock so every experiment is reproducible, and the
report-determinism differential (``tests/test_report_determinism.py``)
runs every report producer with the wall clocks 10**6 s ahead on one
side, so a reading that reaches a report fails it.  Benchmarks, by definition, measure the real machine, so
this module is the one sanctioned place that touches :mod:`time`.

The load replay (:mod:`repro.load`) imports these helpers *lazily and
only in timing mode*: its canonical, byte-stable reports are built
purely from simulated time, and only the cost budget
(``benchmarks/budget/``, its ``load.*`` rows) turns timing on.
"""

from __future__ import annotations

import time

__all__ = ["process_cpu_seconds", "wall_seconds"]


def process_cpu_seconds() -> float:
    """CPU seconds consumed by this process (user + system).

    Unlike wall time, it does not count the time other processes hold
    the core; the budget's ``cpu_us_per_datagram`` is read from here.
    """
    return time.process_time()


def wall_seconds() -> float:
    """A monotonic wall-clock reading (recorded for transparency only)."""
    return time.perf_counter()
