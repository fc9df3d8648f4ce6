"""IPv4 header codec, checksum, and packet container.

The FBS IP mapping inserts the security flow header "in between the
normal IPv4 header and the IP payload" (Section 7.2), fixing up the total
length field; a forwarding router "will not see anything strange" because
the FBS header looks like higher-layer payload.  Reproducing that
behaviour requires a real byte-level IPv4 header, which this module
provides: RFC 791 layout, one's-complement checksum, fragmentation
fields.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace

from repro.netsim.addresses import IPAddress

__all__ = ["IPProtocol", "IPv4Header", "IPv4Packet", "checksum16", "IPV4_HEADER_LEN"]

#: Length of the (optionless) IPv4 header in bytes.
IPV4_HEADER_LEN = 20

#: Don't Fragment flag bit (of the 3-bit flags field).
FLAG_DF = 0b010
#: More Fragments flag bit.
FLAG_MF = 0b001


class IPProtocol(enum.IntEnum):
    """Protocol numbers used in the simulation."""

    ICMP = 1
    TCP = 6
    UDP = 17
    #: Unassigned-in-1997 number we adopt for raw FBS-encapsulated tests.
    FBS_RAW = 253


def checksum16(data: bytes) -> int:
    """RFC 1071 one's-complement 16-bit checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(">%dH" % (len(data) // 2), data))
    while total >> 16:  # end-around carry
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass
class IPv4Header:
    """An RFC 791 header (no options).

    ``total_length`` covers header plus payload; callers normally let
    :meth:`IPv4Packet.encode` compute it.
    """

    src: IPAddress
    dst: IPAddress
    proto: int
    ttl: int = 64
    identification: int = 0
    dont_fragment: bool = False
    more_fragments: bool = False
    fragment_offset: int = 0  # in 8-byte units
    tos: int = 0
    total_length: int = IPV4_HEADER_LEN

    def encode(self) -> bytes:
        """Serialize to 20 bytes with a correct header checksum."""
        if not 0 <= self.fragment_offset < 8192:
            raise ValueError(f"fragment offset out of range: {self.fragment_offset}")
        flags = (FLAG_DF if self.dont_fragment else 0) | (
            FLAG_MF if self.more_fragments else 0
        )
        head = struct.pack(
            ">BBHHHBBH4s4s",
            (4 << 4) | 5,  # version 4, IHL 5 words
            self.tos,
            self.total_length,
            self.identification,
            (flags << 13) | self.fragment_offset,
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )
        csum = checksum16(head)
        return head[:10] + struct.pack(">H", csum) + head[12:]

    @classmethod
    def decode(cls, data: bytes) -> "IPv4Header":
        """Parse and checksum-verify a 20-byte header.

        Raises
        ------
        ValueError
            On truncation, wrong version/IHL, or checksum failure.
        """
        if len(data) < IPV4_HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        header = data[:IPV4_HEADER_LEN]
        (
            ver_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            proto,
            _csum,
            src,
            dst,
        ) = struct.unpack(">BBHHHBBH4s4s", header)
        if ver_ihl != (4 << 4) | 5:
            raise ValueError(f"unsupported version/IHL byte 0x{ver_ihl:02x}")
        if checksum16(header) != 0:
            raise ValueError("IPv4 header checksum failure")
        flags = flags_frag >> 13
        return cls(
            src=IPAddress.from_bytes(src),
            dst=IPAddress.from_bytes(dst),
            proto=proto,
            ttl=ttl,
            identification=identification,
            dont_fragment=bool(flags & FLAG_DF),
            more_fragments=bool(flags & FLAG_MF),
            fragment_offset=flags_frag & 0x1FFF,
            tos=tos,
            total_length=total_length,
        )


@dataclass
class IPv4Packet:
    """A header plus payload, with encode/decode to raw bytes."""

    header: IPv4Header
    payload: bytes

    def encode(self) -> bytes:
        """Serialize; recomputes ``total_length`` from the payload."""
        header = replace(self.header, total_length=IPV4_HEADER_LEN + len(self.payload))
        return header.encode() + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "IPv4Packet":
        """Parse a raw packet; ``total_length`` bounds the payload.

        A ``total_length`` shorter than the header it is part of, or
        longer than the datagram, is a ``ValueError`` (4.4BSD's
        ``ipstat.ips_badlen``; ``ip_input`` counts it in ``bad_headers``).
        """
        header = IPv4Header.decode(data)
        if header.total_length < IPV4_HEADER_LEN:
            raise ValueError(
                f"IPv4 total_length {header.total_length} is shorter than "
                "its header"
            )
        if header.total_length > len(data):
            raise ValueError(
                f"IPv4 total_length {header.total_length} exceeds datagram "
                f"size {len(data)}"
            )
        return cls(header=header, payload=data[IPV4_HEADER_LEN : header.total_length])

    @property
    def size(self) -> int:
        """Wire size in bytes."""
        return IPV4_HEADER_LEN + len(self.payload)
