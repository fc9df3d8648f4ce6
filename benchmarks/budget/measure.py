"""Clocks, percentiles, the window record and the in-memory span recorder.

Everything the budget benchmark times goes through the two functions of
:mod:`repro.bench.clocks`; nothing in this directory reads :mod:`time`.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.clocks import process_cpu_seconds as cpu_seconds
from repro.bench.clocks import wall_seconds as wall

__all__ = [
    "Spans",
    "Window",
    "cpu_seconds",
    "host_factor",
    "median",
    "percentile",
    "quartiles",
    "wall",
]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way the driver computes its spreads."""
    if len(samples) < 2:
        value = samples[0] if samples else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


#: Seconds one calibration spin takes on the host the bounds were tuned on,
#: in that host's common state, so that a factor of 1.0 means "as there".
#: On another host every factor is off by one constant, which cancels in
#: any comparison of two commits run on the same host.
REFERENCE_SPIN_S = 0.00225

_BOX = [(i * 2654435761 >> 7) & 0xFF for i in range(256)]


def _spin() -> float:
    """Wall seconds of a fixed piece of interpreter work that shares no
    code with the program: integer mixing with table look-ups."""
    box = _BOX
    x = 0x12345678
    start = wall()
    for i in range(12000):
        x = ((x << 5) ^ (x >> 3) ^ box[x & 0xFF] ^ i) & 0xFFFFFFFF
    return wall() - start


def host_factor() -> float:
    """How slow the host runs right now, against the reference (1.0).

    The sandbox this benchmark runs in shares its cores: the same code
    runs up to 30% faster or slower for seconds at a time, whatever the
    commit.  Timed windows are therefore bracketed by calibration spins
    and their figures scaled to the reference speed (README.md,
    "Host normalisation"); the raw figures and factors stay in the results.
    """
    return median([_spin() for _ in range(3)]) / REFERENCE_SPIN_S


@dataclass
class Window:
    """What one timed slice (or one fixed-count run) of a workload saw."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Host slowness around this slice (``host_factor``); timed figures
    #: are scaled by it.  1.0 for the fixed-count runs of the ladder.
    host: float = 1.0
    #: Operations offered, and those whose outcome was not the expected one.
    attempted: int = 0
    failed: int = 0
    #: Datagrams delivered with the right plaintext, and their bytes.
    delivered: int = 0
    payload_bytes: int = 0
    #: Open loop only: hostile datagrams refused under their own reason
    #: (not failures; what was offered and is in neither count was shed).
    rejected: int = 0
    latencies_us: List[float] = field(default_factory=list)
    #: Open loop only: how late the generator sent each datagram.
    late_us: List[float] = field(default_factory=list)
    #: Gate failures noticed inside the window.
    problems: List[str] = field(default_factory=list)

    @property
    def goodput_dps(self) -> float:
        return self.delivered / self.wall_s * self.host if self.wall_s > 0 else 0.0

    @property
    def payload_mbps(self) -> float:
        return self.payload_bytes / self.wall_s / 1e6 * self.host if self.wall_s > 0 else 0.0

    @property
    def cpu_us_per_datagram(self) -> float:
        return self.cpu_s * 1e6 / self.delivered / self.host if self.delivered else 0.0

    @property
    def latencies_at_reference_us(self) -> List[float]:
        return [latency / self.host for latency in self.latencies_us]


class Spans:
    """Spans kept in memory while a traced run is going, written out after.

    A row is ``(name, start, end, parent, datagram)``: ``parent`` is the
    name of the operation span the call belongs to and ``datagram`` the
    operation's sequence number, which every span of one operation shares.
    """

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, Optional[str], int]] = []

    def span(
        self, name: str, start: float, parent: Optional[str], datagram: int
    ) -> float:
        """Close a span that began at ``start``; returns its end so the
        next span of the same operation starts on the same clock read."""
        end = wall()
        self.rows.append((name, start, end, parent, datagram))
        return end

    def durations_us(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for name, start, end, _parent, _datagram in self.rows:
            out.setdefault(name, []).append((end - start) * 1e6)
        return out

    def write(self, handle, workload: str) -> None:
        """One JSON line per span, to an open text file."""
        for name, start, end, parent, datagram in self.rows:
            handle.write(json.dumps({
                "workload": workload, "name": name, "start": start,
                "end": end, "parent": parent, "datagram": datagram,
            }, sort_keys=True) + "\n")
