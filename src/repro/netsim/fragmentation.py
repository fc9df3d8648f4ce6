"""IPv4 fragmentation and reassembly.

The paper's FBS hook placement depends on this machinery: FBSSend runs
*before* fragmentation and FBSReceive runs *after* reassembly, so a flow
header is computed once per datagram even when the datagram is fragmented
on the wire (Section 7.2).  The reassembler keeps per-(src, dst, id,
proto) state with a timeout, like ``ip_reass`` in 4.4BSD.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.addresses import IPAddress
from repro.netsim.ipv4 import IPV4_HEADER_LEN, IPv4Header, IPv4Packet

__all__ = ["fragment", "Reassembler", "FragmentationNeeded"]


class FragmentationNeeded(Exception):
    """Raised when a DF packet exceeds the MTU (maps to ICMP type 3/4)."""


def fragment(packet: IPv4Packet, mtu: int) -> List[IPv4Packet]:
    """Split ``packet`` into MTU-sized fragments.

    Fragment payload sizes are multiples of 8 bytes except the last, per
    RFC 791.  Raises :class:`FragmentationNeeded` for oversize DF packets.
    """
    if packet.size <= mtu:
        return [packet]
    if packet.header.dont_fragment:
        raise FragmentationNeeded(
            f"packet of {packet.size} bytes exceeds MTU {mtu} with DF set"
        )
    max_payload = (mtu - IPV4_HEADER_LEN) // 8 * 8
    if max_payload <= 0:
        raise ValueError(f"MTU {mtu} too small to carry any payload")
    fragments = []
    payload = packet.payload
    base_offset = packet.header.fragment_offset
    original_mf = packet.header.more_fragments
    offset = 0
    while offset < len(payload):
        chunk = payload[offset : offset + max_payload]
        last = offset + len(chunk) >= len(payload)
        header = replace(
            packet.header,
            fragment_offset=base_offset + offset // 8,
            more_fragments=(not last) or original_mf,
        )
        fragments.append(IPv4Packet(header=header, payload=chunk))
        offset += len(chunk)
    return fragments


_Key = Tuple[IPAddress, IPAddress, int, int]

#: The largest payload an IPv4 datagram can carry (``total_length`` is
#: 16 bits and covers the header).
MAX_PAYLOAD = 0xFFFF - IPV4_HEADER_LEN


@dataclass
class _PartialDatagram:
    """Reassembly state for one (src, dst, id, proto) datagram."""

    pieces: Dict[int, bytes] = field(default_factory=dict)  # offset-bytes -> data
    total_length: Optional[int] = None  # payload length, known once last frag seen
    first_seen: float = 0.0

    def add(self, header: IPv4Header, payload: bytes) -> None:
        offset = header.fragment_offset * 8
        self.pieces[offset] = payload
        if not header.more_fragments:
            self.total_length = offset + len(payload)

    def complete(self) -> Optional[bytes]:
        """Return the reassembled payload if all pieces are present."""
        if self.total_length is None:
            return None
        data = bytearray(self.total_length)
        covered = 0
        for offset in sorted(self.pieces):
            piece = self.pieces[offset]
            if offset > covered:
                return None  # hole
            end = offset + len(piece)
            data[offset:end] = piece
            covered = max(covered, end)
        if covered < self.total_length:
            return None
        return bytes(data[: self.total_length])


class Reassembler:
    """Per-destination fragment reassembly with timeout-based expiry.

    Parameters
    ----------
    now:
        Zero-argument callable returning the current virtual time, used to
        expire stale partial datagrams.
    timeout:
        Seconds a partial datagram may wait for its missing pieces (the
        BSD default was 30 s).
    max_partials:
        Hard cap on concurrently buffered incomplete datagrams -- the
        4.4BSD ``ip_maxfragpackets``-style guard against the classic
        fragment-flood DoS (a stream of lone first-fragments would
        otherwise grow state without bound).  Inserting past the cap
        evicts the **oldest** partial; each eviction counts in
        ``overflow_drops``.
    max_fragments:
        Cap on distinct pieces one partial may hold (BSD's
        ``ip_maxfragsperpacket``): a datagram sliced absurdly thin is
        discarded whole rather than buffered piece by piece.  A piece
        ending past :data:`MAX_PAYLOAD` discards its partial too; both
        count in ``overflow_drops``.
    """

    def __init__(
        self,
        now: Callable[[], float],
        timeout: float = 30.0,
        max_partials: int = 64,
        max_fragments: int = 64,
    ) -> None:
        if max_partials < 1:
            raise ValueError("max_partials must be positive")
        if max_fragments < 2:
            raise ValueError("max_fragments must allow at least two pieces")
        self._now = now
        self._timeout = timeout
        self._max_partials = max_partials
        self._max_fragments = max_fragments
        # Insertion-ordered (dict semantics): the first key is always
        # the oldest partial, which is what overflow evicts.
        self._partials: Dict[_Key, _PartialDatagram] = {}
        self.expired_datagrams = 0
        self.overflow_drops = 0

    @property
    def max_partials(self) -> int:
        """The configured partial-datagram cap (memory bound)."""
        return self._max_partials

    def push(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        """Feed one packet in; return a whole datagram when complete.

        Unfragmented packets pass straight through.
        """
        header = packet.header
        if header.fragment_offset == 0 and not header.more_fragments:
            return packet
        self._expire()
        key: _Key = (header.src, header.dst, header.identification, header.proto)
        if header.fragment_offset * 8 + len(packet.payload) > MAX_PAYLOAD:
            # No IPv4 datagram can hold this piece: drop it and its
            # partial (4.4BSD ip_reass, IP_MAXPACKET), counted as overflow.
            self._partials.pop(key, None)
            self.overflow_drops += 1
            return None
        partial = self._partials.get(key)
        if partial is None:
            while len(self._partials) >= self._max_partials:
                oldest = next(iter(self._partials))
                del self._partials[oldest]
                self.overflow_drops += 1
            partial = _PartialDatagram(first_seen=self._now())
            self._partials[key] = partial
        partial.add(header, packet.payload)
        if len(partial.pieces) > self._max_fragments:
            del self._partials[key]
            self.overflow_drops += 1
            return None
        payload = partial.complete()
        if payload is None:
            return None
        del self._partials[key]
        whole_header = replace(
            header, fragment_offset=0, more_fragments=False
        )
        return IPv4Packet(header=whole_header, payload=payload)

    def _expire(self) -> None:
        deadline = self._now() - self._timeout
        stale = [k for k, v in self._partials.items() if v.first_seen < deadline]
        for key in stale:
            del self._partials[key]
            self.expired_datagrams += 1

    @property
    def pending(self) -> int:
        """Number of incomplete datagrams currently buffered."""
        return len(self._partials)
