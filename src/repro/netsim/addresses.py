"""Addresses and the classic 5-tuple.

The paper's example security flow policy classifies datagrams by
``<protocol number, source ip address, source port number, destination ip
address, destination port number>`` (Section 7.1).  :class:`FiveTuple` is
that key; it also serializes to a canonical byte string for use as cache
hash input (the paper feeds exactly these fields to CRC-32 in Figure 7).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import total_ordering

__all__ = ["IPAddress", "FiveTuple"]


@total_ordering
class IPAddress:
    """An IPv4 address, stored as a 32-bit integer.

    Accepts dotted-quad strings, integers, or another ``IPAddress``.
    Immutable and hashable so it can key routing tables and caches.
    """

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        if isinstance(value, IPAddress):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"IPv4 address out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 address: {value!r}")
            octets = []
            for part in parts:
                if not part.isdigit():
                    raise ValueError(f"malformed IPv4 address: {value!r}")
                octet = int(part)
                if octet > 255:
                    raise ValueError(f"malformed IPv4 address: {value!r}")
                octets.append(octet)
            self._value = (
                (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
            )
        else:
            raise TypeError(f"cannot build IPAddress from {type(value).__name__}")

    def __int__(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        """Big-endian 4-byte encoding."""
        return self._value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPAddress":
        """Decode a 4-byte big-endian address."""
        if len(data) != 4:
            raise ValueError(f"IPv4 address must be 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def in_subnet(self, network: "IPAddress", prefix_len: int) -> bool:
        """True if this address lies within ``network/prefix_len``."""
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"bad prefix length {prefix_len}")
        mask = 0xFFFFFFFF if prefix_len == 32 else ~(0xFFFFFFFF >> prefix_len) & 0xFFFFFFFF
        if prefix_len == 0:
            mask = 0
        return (self._value & mask) == (int(network) & mask)

    def __eq__(self, other) -> bool:
        return isinstance(other, IPAddress) and self._value == other._value

    def __lt__(self, other) -> bool:
        if not isinstance(other, IPAddress):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        v = self._value
        return f"{v >> 24 & 255}.{v >> 16 & 255}.{v >> 8 & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"


@dataclass(frozen=True)
class FiveTuple:
    """The <proto, saddr, sport, daddr, dport> conversation key.

    ``pack()`` produces the canonical 13-byte encoding that the Figure 7
    mapper feeds to CRC-32.
    """

    proto: int
    saddr: IPAddress
    sport: int
    daddr: IPAddress
    dport: int

    def __post_init__(self) -> None:
        if not 0 <= self.proto <= 255:
            raise ValueError(f"protocol number out of range: {self.proto}")
        for name, port in (("sport", self.sport), ("dport", self.dport)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")

    def pack(self) -> bytes:
        """Canonical byte encoding (proto, saddr, sport, daddr, dport)."""
        return struct.pack(
            ">B4sH4sH",
            self.proto,
            self.saddr.to_bytes(),
            self.sport,
            self.daddr.to_bytes(),
            self.dport,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "FiveTuple":
        """Inverse of :meth:`pack`."""
        proto, saddr, sport, daddr, dport = struct.unpack(">B4sH4sH", data)
        return cls(
            proto=proto,
            saddr=IPAddress.from_bytes(saddr),
            sport=sport,
            daddr=IPAddress.from_bytes(daddr),
            dport=dport,
        )

    def __str__(self) -> str:
        return (
            f"proto={self.proto} {self.saddr}:{self.sport}"
            f" -> {self.daddr}:{self.dport}"
        )
