"""The on-path adversary.

Capabilities (the standard datagram-network attacker model):

* **Record**: a promiscuous tap on the shared segment captures every
  frame (what the paper's own tcpdump sniffers did).
* **Inject**: raw frames -- with any source address, any content -- can
  be transmitted onto the segment.
* **Rewrite**: captured frames can be arbitrarily modified before
  re-injection (the cut-and-paste primitive).

The adversary cannot break cryptography or read keys; key-compromise
scenarios (:mod:`repro.attacks.compromise`) model stolen keys
explicitly.
"""

from __future__ import annotations

from typing import List

from repro.netsim.clock import Simulator
from repro.netsim.ipv4 import IPv4Packet
from repro.netsim.link import EthernetSegment

__all__ = ["OnPathAdversary"]


class OnPathAdversary:
    """An attacker station attached to a shared Ethernet segment."""

    def __init__(self, sim: Simulator, segment: EthernetSegment, name: str = "mallory") -> None:
        self.sim = sim
        self.name = name
        self._segment = segment
        self.captured: List[bytes] = []
        segment.attach_tap(self._on_frame)
        # The attacker is also a (silent) station so it can transmit.
        self._station_id = segment.attach(lambda _frame: None)

    def _on_frame(self, frame: bytes) -> None:
        self.captured.append(frame)

    # -- capture inspection -------------------------------------------------------

    def captured_packets(self) -> List[IPv4Packet]:
        """Parse every captured frame as IPv4 (skipping malformed)."""
        out = []
        for frame in self.captured:
            try:
                out.append(IPv4Packet.decode(frame))
            except ValueError:
                continue
        return out

    # -- injection ---------------------------------------------------------------------

    def inject_frame(self, frame: bytes, delay: float = 0.0) -> None:
        """Put a raw frame on the wire after ``delay`` seconds."""
        if delay > 0:
            self.sim.schedule(delay, lambda: self._segment.send(self._station_id, frame))
        else:
            self._segment.send(self._station_id, frame)

    def inject_packet(self, packet: IPv4Packet, delay: float = 0.0) -> None:
        """Encode and inject an IP packet (source address is whatever
        the attacker put in the header -- spoofing is free)."""
        self.inject_frame(packet.encode(), delay=delay)

    def replay(self, frame: bytes, delay: float = 0.0, copies: int = 1) -> None:
        """Re-inject a previously captured frame verbatim."""
        for i in range(copies):
            self.inject_frame(frame, delay=delay + i * 1e-4)
