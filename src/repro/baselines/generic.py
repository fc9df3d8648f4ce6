"""GENERIC: regular IP with no security processing.

The Figure 8 baseline ("GENERIC ... regular 4.4BSD IP").  Installing
this module is equivalent to installing nothing; it exists so benches
and attacks can iterate uniformly over every scheme: its wire layout is
all body and it holds no keys.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.netsim.host import SecurityModule
from repro.netsim.ipv4 import IPv4Packet

__all__ = ["GenericNull"]


class GenericNull(SecurityModule):
    """Pass-through security module."""

    name = "generic"

    def outbound(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        return packet

    def inbound(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        return packet

    def header_overhead(self) -> int:
        return 0

    def split(self, data: bytes) -> Tuple[bytes, bytes, bytes, bytes]:
        """``(prefix, iv, mac, body)`` as a sealed scheme has them: all body."""
        return b"", b"", b"", data

    def receive_keys(self, packet: IPv4Packet, prefix: bytes) -> None:
        """No keys: nothing is sealed."""
        return None
