"""A simplified TCP over the simulated IP stack.

This is not a full RFC 793 implementation; it provides what the paper's
evaluation and examples require:

* three-way handshake and FIN teardown,
* cumulative ACKs, out-of-order buffering, retransmission with
  exponential backoff,
* sliding-window bulk transfer (``rcp``-style measurement traffic), and
* crucially, the 4.4BSD ``tcp_output`` *exact-fit* behaviour the paper
  had to patch: "tcp_output(), for the sake of performance, attempts to
  calculate exactly how much data it can place in a packet without
  triggering fragmentation.  It then places exactly this much data in
  the packet and sets the DF (Don't Fragment) flag ...  This breaks when
  we insert our FBS header.  We modified its calculation to include the
  FBS header size." (Section 7.2)

The MSS calculation therefore subtracts ``header_reserve()`` -- a
callable the FBS IP mapping installs (the paper's one-file
``tcp_output.c`` fix).  Tests demonstrate that with FBS enabled and the
reserve *not* installed, full-MSS segments exceed the MTU with DF set
and bulk transfers stall, exactly the failure mode the paper describes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.netsim.addresses import IPAddress
from repro.netsim.clock import CancelToken, Simulator
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet, IPV4_HEADER_LEN

__all__ = ["TCPHeader", "TCP_HEADER_LEN", "TcpLayer", "TcpConnection", "TcpState"]

#: Simplified TCP header length in bytes.
TCP_HEADER_LEN = 20

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_ACK = 0x10

_SEQ_MOD = 1 << 32


def _seq_lt(a: int, b: int) -> bool:
    """Modular sequence comparison a < b."""
    return ((b - a) % _SEQ_MOD) != 0 and ((b - a) % _SEQ_MOD) < (1 << 31)


def _seq_le(a: int, b: int) -> bool:
    return a == b or _seq_lt(a, b)


@dataclass
class TCPHeader:
    """A 20-byte simplified TCP header."""

    sport: int
    dport: int
    seq: int
    ack: int
    flags: int
    window: int = 65535

    def encode(self) -> bytes:
        return struct.pack(
            ">HHIIBBHHH",
            self.sport,
            self.dport,
            self.seq % _SEQ_MOD,
            self.ack % _SEQ_MOD,
            self.flags,
            0,
            self.window,
            0,  # checksum (IP layer integrity suffices in simulation)
            0,  # urgent pointer (unused)
        )

    @classmethod
    def decode(cls, data: bytes) -> "TCPHeader":
        if len(data) < TCP_HEADER_LEN:
            raise ValueError("truncated TCP header")
        sport, dport, seq, ack, flags, _res, window, _csum, _urg = struct.unpack(
            ">HHIIBBHHH", data[:TCP_HEADER_LEN]
        )
        return cls(sport=sport, dport=dport, seq=seq, ack=ack, flags=flags, window=window)


class TcpState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"
    TIME_WAIT = "time-wait"


_ConnKey = Tuple[int, IPAddress, int]  # (local port, remote addr, remote port)


class TcpConnection:
    """One end of a TCP connection."""

    MAX_RETRIES = 8
    INITIAL_RTO = 0.5

    def __init__(
        self,
        layer: "TcpLayer",
        local_port: int,
        remote_addr: IPAddress,
        remote_port: int,
        iss: int,
    ) -> None:
        self._layer = layer
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.state = TcpState.CLOSED
        # Send side.
        self.snd_una = iss
        self.snd_nxt = iss
        self.iss = iss
        self._send_buffer = b""
        self._send_base_seq = iss + 1  # first data byte's sequence number
        self._fin_pending = False
        self._fin_sent = False
        self.peer_window = 65535
        # Receive side.
        self.rcv_nxt = 0
        self._ooo: Dict[int, bytes] = {}
        self._peer_fin_seq: Optional[int] = None
        # Timers.
        self._rto = self.INITIAL_RTO
        self._retries = 0
        self._retransmit_timer: Optional[CancelToken] = None
        # Callbacks.
        self.on_connect: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_fail: Optional[Callable[[str], None]] = None
        # Stats.
        self.bytes_sent = 0
        self.segments_retransmitted = 0

    # -- public API ----------------------------------------------------------

    @property
    def mss(self) -> int:
        """Maximum segment size, including the FBS header reserve fix."""
        mtu = self._layer.mtu_for(self.remote_addr)
        return mtu - IPV4_HEADER_LEN - TCP_HEADER_LEN - self._layer.header_reserve()

    def send(self, data: bytes) -> None:
        """Queue application data for transmission."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.SYN_SENT, TcpState.SYN_RCVD):
            raise RuntimeError(f"cannot send in state {self.state}")
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("cannot send after close()")
        self._send_buffer += data
        self._output()

    def close(self) -> None:
        """Close the send side; a FIN follows the buffered data."""
        if self._fin_pending or self._fin_sent:
            return
        self._fin_pending = True
        self._output()

    @property
    def unacked(self) -> int:
        """Bytes (plus FIN) sent but not yet acknowledged."""
        return (self.snd_nxt - self.snd_una) % _SEQ_MOD

    # -- output engine (tcp_output) ------------------------------------------

    def _output(self) -> None:
        """The tcp_output loop: emit as much as window and MSS allow."""
        mss = self.mss
        if mss <= 0:
            raise RuntimeError(f"MSS collapsed to {mss}; MTU too small for reserves")
        while True:
            offset = (self.snd_nxt - self._send_base_seq) % _SEQ_MOD
            available = len(self._send_buffer) - offset
            window_room = self.peer_window - self.unacked
            if available > 0 and window_room > 0:
                size = min(available, mss, window_room)
                chunk = self._send_buffer[offset : offset + size]
                # 4.4BSD exact-fit behaviour: a full-MSS segment is known
                # to exactly fill the MTU, so DF is set.
                exact_fit = size == mss
                self._emit(
                    seq=self.snd_nxt,
                    flags=FLAG_ACK,
                    payload=chunk,
                    dont_fragment=exact_fit,
                )
                self.snd_nxt = (self.snd_nxt + size) % _SEQ_MOD
                continue
            break
        if (
            self._fin_pending
            and not self._fin_sent
            and (self.snd_nxt - self._send_base_seq) % _SEQ_MOD >= len(self._send_buffer)
        ):
            self._emit(seq=self.snd_nxt, flags=FLAG_FIN | FLAG_ACK, payload=b"")
            self.snd_nxt = (self.snd_nxt + 1) % _SEQ_MOD
            self._fin_sent = True
            if self.state == TcpState.ESTABLISHED:
                self.state = TcpState.FIN_WAIT
            elif self.state == TcpState.CLOSE_WAIT:
                self.state = TcpState.LAST_ACK
        if self.unacked:
            self._arm_retransmit()

    def _emit(
        self,
        seq: int,
        flags: int,
        payload: bytes,
        dont_fragment: bool = False,
    ) -> None:
        header = TCPHeader(
            sport=self.local_port,
            dport=self.remote_port,
            seq=seq,
            ack=self.rcv_nxt if flags & FLAG_ACK else 0,
            flags=flags,
        )
        self._layer.transmit_segment(
            self, header.encode() + payload, dont_fragment=dont_fragment
        )
        if payload:
            self.bytes_sent += len(payload)

    # -- handshake ------------------------------------------------------------

    def start_connect(self) -> None:
        """Active open: send SYN."""
        self.state = TcpState.SYN_SENT
        self._emit(seq=self.iss, flags=FLAG_SYN, payload=b"")
        self.snd_nxt = (self.iss + 1) % _SEQ_MOD
        self._arm_retransmit()

    # -- segment arrival -------------------------------------------------------

    def segment_arrived(self, header: TCPHeader, payload: bytes) -> None:
        """Process one inbound segment."""
        if header.flags & FLAG_RST:
            self._fail("connection reset by peer")
            return
        self.peer_window = header.window

        if self.state == TcpState.SYN_SENT:
            if header.flags & FLAG_SYN and header.flags & FLAG_ACK:
                if header.ack != (self.iss + 1) % _SEQ_MOD:
                    self._fail("bad SYN-ACK acknowledgment")
                    return
                self.rcv_nxt = (header.seq + 1) % _SEQ_MOD
                self.snd_una = header.ack
                self.state = TcpState.ESTABLISHED
                self._cancel_retransmit()
                self._send_ack()
                if self.on_connect:
                    self.on_connect()
                self._output()
            return

        if self.state == TcpState.SYN_RCVD:
            if header.flags & FLAG_ACK and header.ack == (self.iss + 1) % _SEQ_MOD:
                self.snd_una = header.ack
                self.state = TcpState.ESTABLISHED
                self._cancel_retransmit()
                if self.on_connect:
                    self.on_connect()
            # Fall through: the ACK may carry data.

        # -- ACK processing.
        if header.flags & FLAG_ACK and self.state not in (TcpState.LISTEN, TcpState.CLOSED):
            if _seq_lt(self.snd_una, header.ack) and _seq_le(header.ack, self.snd_nxt):
                self.snd_una = header.ack
                self._retries = 0
                self._rto = self.INITIAL_RTO
                if self.unacked:
                    self._arm_retransmit()
                else:
                    self._cancel_retransmit()
                    if self.state == TcpState.LAST_ACK and self._fin_acked():
                        self._become_closed()
                        return
                    if self.state == TcpState.FIN_WAIT and self._fin_acked() and self._peer_fin_seen():
                        self._become_closed()
                        return
                self._output()

        # -- data processing.
        if payload or header.flags & FLAG_FIN:
            self._receive_data(header, payload)

    def _receive_data(self, header: TCPHeader, payload: bytes) -> None:
        seq = header.seq
        if header.flags & FLAG_FIN:
            fin_seq = (seq + len(payload)) % _SEQ_MOD
            self._peer_fin_seq = fin_seq
        if payload:
            if seq == self.rcv_nxt:
                self._deliver(payload)
                self._drain_ooo()
            elif _seq_lt(self.rcv_nxt, seq):
                self._ooo[seq] = payload
            # Old/duplicate data: just re-ACK.
        if self._peer_fin_seq is not None and self.rcv_nxt == self._peer_fin_seq:
            self.rcv_nxt = (self.rcv_nxt + 1) % _SEQ_MOD
            self._peer_fin_seq = -1  # consumed marker
            if self.state == TcpState.ESTABLISHED:
                self.state = TcpState.CLOSE_WAIT
            if self.on_close:
                self.on_close()
            if self.state == TcpState.FIN_WAIT and self._fin_acked():
                self._send_ack()
                self._become_closed()
                return
        self._send_ack()

    def _deliver(self, payload: bytes) -> None:
        self.rcv_nxt = (self.rcv_nxt + len(payload)) % _SEQ_MOD
        if self.on_data:
            self.on_data(payload)

    def _drain_ooo(self) -> None:
        while self.rcv_nxt in self._ooo:
            chunk = self._ooo.pop(self.rcv_nxt)
            self._deliver(chunk)

    def _peer_fin_seen(self) -> bool:
        return self._peer_fin_seq == -1

    def _fin_acked(self) -> bool:
        return self._fin_sent and self.unacked == 0

    def _send_ack(self) -> None:
        self._emit(seq=self.snd_nxt, flags=FLAG_ACK, payload=b"")

    # -- timers ----------------------------------------------------------------

    def _arm_retransmit(self) -> None:
        self._cancel_retransmit()
        self._retransmit_timer = self._layer.sim.schedule(self._rto, self._on_timeout)

    def _cancel_retransmit(self) -> None:
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None

    def _on_timeout(self) -> None:
        self._retransmit_timer = None
        if not self.unacked:
            return
        self._retries += 1
        if self._retries > self.MAX_RETRIES:
            self._fail("retransmission limit exceeded")
            return
        self.segments_retransmitted += 1
        self._rto = min(self._rto * 2, 16.0)
        self._retransmit_from(self.snd_una)
        self._arm_retransmit()

    def _retransmit_from(self, seq: int) -> None:
        if self.state == TcpState.SYN_SENT:
            self._emit(seq=self.iss, flags=FLAG_SYN, payload=b"")
            return
        if self.state == TcpState.SYN_RCVD:
            self._emit(seq=self.iss, flags=FLAG_SYN | FLAG_ACK, payload=b"")
            return
        offset = (seq - self._send_base_seq) % _SEQ_MOD
        if offset < len(self._send_buffer):
            size = min(len(self._send_buffer) - offset, self.mss)
            chunk = self._send_buffer[offset : offset + size]
            self._emit(
                seq=seq,
                flags=FLAG_ACK,
                payload=chunk,
                dont_fragment=size == self.mss,
            )
        elif self._fin_sent:
            self._emit(seq=seq, flags=FLAG_FIN | FLAG_ACK, payload=b"")

    # -- termination -------------------------------------------------------------

    def _become_closed(self) -> None:
        self.state = TcpState.CLOSED
        self._cancel_retransmit()
        self._layer.forget(self)

    def _fail(self, reason: str) -> None:
        self.state = TcpState.CLOSED
        self._cancel_retransmit()
        self._layer.forget(self)
        if self.on_fail:
            self.on_fail(reason)


class TcpLayer:
    """TCP multiplexing for one host."""

    def __init__(
        self,
        sim: Simulator,
        transmit: Callable[[IPv4Packet], None],
        local_address: Callable[[IPAddress], IPAddress],
        mtu_for: Callable[[IPAddress], int],
        iss_source: Optional[Callable[[], int]] = None,
    ) -> None:
        self.sim = sim
        self._transmit = transmit
        self._local_address = local_address
        self.mtu_for = mtu_for
        self._iss_counter = 1000
        self._iss_source = iss_source
        self._connections: Dict[_ConnKey, TcpConnection] = {}
        self._listeners: Dict[int, Callable[[TcpConnection], None]] = {}
        self._next_ephemeral = 2048
        #: FBS header reserve for MSS calculation (the tcp_output.c fix).
        #: Left at a constant 0 unless the FBS mapping installs its own.
        self.header_reserve: Callable[[], int] = lambda: 0
        self.segments_received = 0

    # -- API --------------------------------------------------------------------

    def listen(self, port: int, on_accept: Callable[[TcpConnection], None]) -> None:
        """Accept connections on ``port``; fires ``on_accept`` per connection."""
        if port in self._listeners:
            raise ValueError(f"TCP port {port} already listening")
        self._listeners[port] = on_accept

    def connect(
        self, remote_addr: IPAddress, remote_port: int, local_port: int = 0
    ) -> TcpConnection:
        """Active open to ``remote_addr:remote_port``."""
        if local_port == 0:
            local_port = self._allocate_ephemeral()
        key = (local_port, remote_addr, remote_port)
        if key in self._connections:
            raise ValueError(f"connection {key} already exists")
        conn = TcpConnection(self, local_port, remote_addr, remote_port, self._iss())
        self._connections[key] = conn
        conn.start_connect()
        return conn

    def _allocate_ephemeral(self) -> int:
        used = {key[0] for key in self._connections}
        while self._next_ephemeral in used or self._next_ephemeral in self._listeners:
            self._next_ephemeral += 1
            if self._next_ephemeral > 0xFFFF:
                self._next_ephemeral = 2048
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def _iss(self) -> int:
        if self._iss_source is not None:
            return self._iss_source() % _SEQ_MOD
        self._iss_counter += 64000
        return self._iss_counter % _SEQ_MOD

    # -- plumbing -----------------------------------------------------------------

    def transmit_segment(
        self, conn: TcpConnection, segment: bytes, dont_fragment: bool = False
    ) -> None:
        """Wrap a segment in IP and hand it to the host transmit path."""
        src = self._local_address(conn.remote_addr)
        packet = IPv4Packet(
            header=IPv4Header(
                src=src,
                dst=conn.remote_addr,
                proto=IPProtocol.TCP,
                dont_fragment=dont_fragment,
            ),
            payload=segment,
        )
        self._transmit(packet)

    def deliver(self, packet: IPv4Packet) -> None:
        """IP protocol handler for proto 6."""
        try:
            header = TCPHeader.decode(packet.payload)
        except ValueError:
            return
        self.segments_received += 1
        payload = packet.payload[TCP_HEADER_LEN:]
        key = (header.dport, packet.header.src, header.sport)
        conn = self._connections.get(key)
        if conn is not None:
            conn.segment_arrived(header, payload)
            return
        # New connection for a listener?
        if header.flags & FLAG_SYN and not header.flags & FLAG_ACK:
            on_accept = self._listeners.get(header.dport)
            if on_accept is None:
                return  # would send RST; silently drop in simulation
            conn = TcpConnection(
                self, header.dport, packet.header.src, header.sport, self._iss()
            )
            conn.state = TcpState.SYN_RCVD
            conn.rcv_nxt = (header.seq + 1) % _SEQ_MOD
            self._connections[key] = conn
            conn._emit(seq=conn.iss, flags=FLAG_SYN | FLAG_ACK, payload=b"")
            conn.snd_nxt = (conn.iss + 1) % _SEQ_MOD
            conn._arm_retransmit()
            # Only now hand the connection to the application: data
            # queued inside on_accept sequences after the SYN.
            on_accept(conn)

    def forget(self, conn: TcpConnection) -> None:
        """Remove a closed connection from the demux table."""
        key = (conn.local_port, conn.remote_addr, conn.remote_port)
        self._connections.pop(key, None)

    @property
    def open_connections(self) -> int:
        return len(self._connections)
