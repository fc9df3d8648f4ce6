"""UDP (RFC 768) over the simulated IP stack.

Datagram semantics straight through: no state, no handshake, no
reliability.  The checksum covers a pseudo-header (src, dst, proto,
length) plus the UDP header and payload, as in the RFC.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.netsim.addresses import IPAddress
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet, checksum16

__all__ = ["UDPHeader", "UDP_HEADER_LEN", "UdpLayer"]

#: UDP header length in bytes.
UDP_HEADER_LEN = 8

#: Callback fired on datagram delivery: (payload, src_addr, src_port).
DatagramCallback = Callable[[bytes, IPAddress, int], None]


@dataclass
class UDPHeader:
    """The 8-byte UDP header."""

    sport: int
    dport: int
    length: int = 0
    checksum: int = 0

    def encode(self) -> bytes:
        return struct.pack(">HHHH", self.sport, self.dport, self.length, self.checksum)

    @classmethod
    def decode(cls, data: bytes) -> "UDPHeader":
        if len(data) < UDP_HEADER_LEN:
            raise ValueError("truncated UDP header")
        sport, dport, length, csum = struct.unpack(">HHHH", data[:UDP_HEADER_LEN])
        return cls(sport=sport, dport=dport, length=length, checksum=csum)


def _pseudo_header(src: IPAddress, dst: IPAddress, length: int) -> bytes:
    return src.to_bytes() + dst.to_bytes() + struct.pack(">BBH", 0, IPProtocol.UDP, length)


class UdpLayer:
    """UDP multiplexing for one host.

    ``send`` hands fully-formed IPv4 packets to a transmit function
    provided by the host (which charges CPU cost and calls
    ``ip_output``); delivery fires per-port callbacks.
    """

    def __init__(
        self,
        transmit: Callable[[IPv4Packet], None],
        local_address: Callable[[IPAddress], IPAddress],
        now: Callable[[], float] = lambda: 0.0,
    ) -> None:
        self._transmit = transmit
        self._local_address = local_address
        self._now = now
        self._bindings: Dict[int, DatagramCallback] = {}
        self._released_at: Dict[int, float] = {}
        self._next_ephemeral = 1024
        #: When True, outgoing datagrams carry a checksum and inbound
        #: checksums are verified.  Off models the common 1997 practice
        #: of disabling UDP checksums for speed -- which is what makes
        #: the cut-and-paste attack against MAC-less encryption land.
        self.compute_checksums = True
        #: Minimum seconds between a port's release and its re-binding.
        #: 0 disables the guard.  Setting it to THRESHOLD is the paper's
        #: countermeasure to the Section 7.1 port-reuse attack ("impose
        #: a wait of THRESHOLD on port reallocation", the in_pcballoc
        #: change).
        self.rebind_wait = 0.0
        self.datagrams_sent = 0
        self.checksum_failures = 0
        self.no_port = 0

    def bind(self, port: int, callback: DatagramCallback) -> int:
        """Bind ``callback`` to ``port`` (0 picks an ephemeral port).

        Raises
        ------
        ValueError
            If the port is taken, or was released less than
            ``rebind_wait`` seconds ago (the port-reuse countermeasure).
        """
        if port == 0:
            port = self.allocate_ephemeral()
        if port in self._bindings:
            raise ValueError(f"UDP port {port} already bound")
        if self.rebind_wait > 0:
            released = self._released_at.get(port)
            if released is not None and self._now() - released < self.rebind_wait:
                raise ValueError(
                    f"UDP port {port} released {self._now() - released:.1f}s ago; "
                    f"reallocation requires a {self.rebind_wait:.0f}s wait"
                )
        self._bindings[port] = callback
        return port

    def unbind(self, port: int) -> None:
        """Release a bound port."""
        if self._bindings.pop(port, None) is not None:
            self._released_at[port] = self._now()

    def allocate_ephemeral(self) -> int:
        """Pick the next free ephemeral port (wrapping within 1024..65535)."""
        for _ in range(0xFFFF - 1024 + 1):
            if self._next_ephemeral > 0xFFFF:
                self._next_ephemeral = 1024
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if port not in self._bindings:
                return port
        raise RuntimeError("all ephemeral UDP ports are bound")

    def sendto(
        self,
        payload: bytes,
        sport: int,
        dst: IPAddress,
        dport: int,
        src: Optional[IPAddress] = None,
    ) -> None:
        """Send one datagram."""
        src = src or self._local_address(dst)
        length = UDP_HEADER_LEN + len(payload)
        header = UDPHeader(sport=sport, dport=dport, length=length)
        if self.compute_checksums:
            body = header.encode() + payload
            # RFC 768: a computed zero goes out as all ones; a zero field
            # means "no checksum" and ``deliver`` would skip verification.
            header.checksum = checksum16(_pseudo_header(src, dst, length) + body) or 0xFFFF
        packet = IPv4Packet(
            header=IPv4Header(src=src, dst=dst, proto=IPProtocol.UDP),
            payload=header.encode() + payload,
        )
        self.datagrams_sent += 1
        self._transmit(packet)

    def deliver(self, packet: IPv4Packet) -> None:
        """IP protocol handler for proto 17."""
        try:
            header = UDPHeader.decode(packet.payload)
        except ValueError:
            self.checksum_failures += 1
            return
        # A length shorter than the UDP header or longer than the IP
        # payload is dropped, as 4.4BSD's udps_badlen (counted here).
        if not UDP_HEADER_LEN <= header.length <= len(packet.payload):
            self.checksum_failures += 1
            return
        body = packet.payload[: header.length]
        if header.checksum:
            pseudo = _pseudo_header(packet.header.src, packet.header.dst, header.length)
            if checksum16(pseudo + body) not in (0, 0xFFFF):
                self.checksum_failures += 1
                return
        callback = self._bindings.get(header.dport)
        if callback is None:
            self.no_port += 1
            return
        callback(body[UDP_HEADER_LEN:], packet.header.src, header.sport)
