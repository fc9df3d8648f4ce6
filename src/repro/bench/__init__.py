"""Shared measurement harness used by the ``benchmarks/`` targets.

* :mod:`repro.bench.throughput` -- ttcp/rcp-style throughput
  measurement over the simulated testbed (Figure 8).
* :mod:`repro.bench.reporting` -- plain-text table rendering shared by
  the per-figure bench scripts.
* :mod:`repro.bench.clocks` -- the sanctioned wall/CPU clock reads
  (the cost budget, ``benchmarks/budget/``, reads no other clock).
"""

from repro.bench.throughput import (
    ThroughputResult,
    measure_udp_throughput,
    measure_tcp_throughput,
    measure_routed_udp_throughput,
    FIGURE8_CONFIGS,
    setup_security,
)
from repro.bench.reporting import render_table, render_cdf

__all__ = [
    "ThroughputResult",
    "measure_udp_throughput",
    "measure_tcp_throughput",
    "measure_routed_udp_throughput",
    "FIGURE8_CONFIGS",
    "setup_security",
    "render_table",
    "render_cdf",
]
