"""The one transmission medium: a shared Ethernet segment.

:class:`EthernetSegment` is the paper's "dedicated 10M Ethernet
segment": a shared medium that serializes transmissions (one frame at a
time, FIFO) and hands each frame to the station holding its link-layer
destination, as a NIC's address filter does.  Stations attached without
an address, and taps (the tcpdump sniffers used for the flow
measurements in Section 7.3), are promiscuous.  A point-to-point link
is a segment with two stations.  :class:`LinkConditions` injects the
datagram "features" the paper explicitly preserves ("lack of sequencing
..., possibility of omission and duplication", Section 3): loss,
duplication, reordering jitter and corruption.

Frames carry opaque bytes; framing overhead (preamble, MAC header, CRC,
inter-frame gap -- 38 bytes on classic Ethernet) is accounted in
serialization time.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.netsim.addresses import IPAddress
from repro.netsim.clock import Simulator

__all__ = ["LinkConditions", "EthernetSegment", "ETHERNET_FRAMING_OVERHEAD"]

#: Preamble (8) + MAC header (14) + CRC (4) + inter-frame gap (12) bytes.
ETHERNET_FRAMING_OVERHEAD = 38

Receiver = Callable[[bytes], None]


@dataclass
class LinkConditions:
    """Adverse datagram-service conditions, applied per frame."""

    loss_probability: float = 0.0
    duplication_probability: float = 0.0
    #: Maximum extra random delay (seconds); nonzero values reorder frames.
    reorder_jitter: float = 0.0
    #: Probability a transmitted copy arrives with one bit flipped
    #: (noisy-wire corruption; FBS must reject the damaged datagram).
    corruption_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "loss_probability",
            "duplication_probability",
            "corruption_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.reorder_jitter < 0:
            raise ValueError("reorder_jitter must be non-negative")


def _flip_random_bit(frame: bytes, rng: _random.Random) -> bytes:
    """One bit of line noise, at a seeded-random position."""
    if not frame:
        return frame
    position = rng.randrange(len(frame) * 8)
    damaged = bytearray(frame)
    damaged[position >> 3] ^= 1 << (position & 7)
    return bytes(damaged)


class EthernetSegment:
    """A shared segment (classic 10 Mb/s Ethernet by default).

    A frame sent to a next hop interrupts only the station(s) attached
    with that address, plus every station attached without one
    (promiscuous) and every tap; a frame sent without a next hop is a
    broadcast and reaches all stations.  The sender never hears its own
    frame.  The simulation has no ARP, so the link-layer address *is*
    the interface's IP address.  The medium is a single resource:
    transmissions serialize FIFO across *all* stations, which is the
    dominant first-order behaviour of CSMA/CD under the paper's
    dedicated-segment conditions.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 10_000_000.0,
        propagation_delay: float = 25e-6,
        conditions: Optional[LinkConditions] = None,
        seed: int = 0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self._sim = sim
        self._bandwidth = bandwidth_bps
        self._delay = propagation_delay
        self._conditions = conditions or LinkConditions()
        self._rng = _random.Random(seed)
        #: (receiver, link-layer address as its integer, or None for
        #: promiscuous): a frame is matched against every station.
        self._stations: List[Tuple[Receiver, Optional[int]]] = []
        self._taps: List[Receiver] = []
        self._medium_free_at = 0.0
        # Statistics.
        self.frames_sent = 0
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_corrupted = 0
        self.bytes_sent = 0

    def attach(self, receiver: Receiver, address: Optional[IPAddress] = None) -> int:
        """Attach a station; returns its station id (used to skip self).

        ``address`` is the station's link-layer address: it is handed
        the frames sent to that next hop, and broadcasts.  Without one
        the station is promiscuous and is handed every frame.
        """
        self._stations.append((receiver, None if address is None else int(address)))
        return len(self._stations) - 1

    def attach_tap(self, tap: Receiver) -> None:
        """Attach a promiscuous tap (the tcpdump sniffer of Section 7.3).

        Taps see every frame, including the sender's own, and are never
        subject to loss.
        """
        self._taps.append(tap)

    @property
    def conditions(self) -> LinkConditions:
        """Current fault conditions (fault campaigns swap them mid-run)."""
        return self._conditions

    @conditions.setter
    def conditions(self, conditions: LinkConditions) -> None:
        self._conditions = conditions

    def serialization_time(self, nbytes: int) -> float:
        """Wire time for a frame of ``nbytes`` payload."""
        return (nbytes + ETHERNET_FRAMING_OVERHEAD) * 8 / self._bandwidth

    @property
    def busy_until(self) -> float:
        """Virtual time at which the medium becomes idle."""
        return self._medium_free_at

    def send(
        self, station_id: int, frame: bytes, next_hop: Optional[IPAddress] = None
    ) -> float:
        """Transmit ``frame`` from ``station_id``; returns departure time.

        ``next_hop`` is the link-layer destination (``None``: broadcast).
        It travels beside the frame, not in it, so corruption never
        misdelivers: a frame whose IP destination took the bit flip still
        reaches the station it was sent to, which counts the bad header.

        Adverse conditions: a duplicated frame is a *second
        transmission* -- it serializes again on the shared medium and is
        counted in ``frames_sent``/``bytes_sent``, so duplication is
        never free airtime and throughput statistics see every wire
        bit; loss and corruption are drawn once per wire copy (one
        signal, every station sees the same fate), and
        ``reorder_jitter`` is applied **per delivery** -- each station's
        receive path adds its own seeded-random delay, so a jittered
        segment actually reorders frames between stations.  The jitter is
        drawn for every station in station order, addressed or not, so a
        seeded run's dice do not depend on who is listening.
        """
        if not 0 <= station_id < len(self._stations):
            raise ValueError(f"unknown station id {station_id}")
        copies = 1
        if self._rng.random() < self._conditions.duplication_probability:
            copies = 2
            self.frames_duplicated += 1
        first_departure = 0.0
        for copy in range(copies):
            start = max(self._sim.now, self._medium_free_at)
            departure = start + self.serialization_time(len(frame))
            self._medium_free_at = departure
            self.frames_sent += 1
            self.bytes_sent += len(frame)
            if copy == 0:
                first_departure = departure
            self._transmit_copy(station_id, frame, departure, next_hop)
        return first_departure

    def _transmit_copy(
        self,
        station_id: int,
        frame: bytes,
        departure: float,
        next_hop: Optional[IPAddress],
    ) -> None:
        """One wire copy: draw its fate, then deliver to who listens for it."""
        dropped = self._rng.random() < self._conditions.loss_probability
        if dropped:
            self.frames_dropped += 1
        wire = frame
        if not dropped and (
            self._rng.random() < self._conditions.corruption_probability
        ):
            wire = _flip_random_bit(frame, self._rng)
            self.frames_corrupted += 1
        arrival = departure + self._delay
        if not dropped:
            hop = None if next_hop is None else int(next_hop)
            for i, (receiver, address) in enumerate(self._stations):
                if i == station_id:
                    continue
                jitter = (
                    self._rng.random() * self._conditions.reorder_jitter
                    if self._conditions.reorder_jitter
                    else 0.0
                )
                if hop is None or address is None or address == hop:
                    self._sim.schedule_at(
                        arrival + jitter, lambda f=wire, r=receiver: r(f)
                    )
        # Taps see what was on the wire (corruption included) and are
        # exempt from loss and jitter: they model measurement
        # infrastructure, not a real receive path.
        for tap in self._taps:
            self._sim.schedule_at(arrival, lambda f=wire, t=tap: t(f))
