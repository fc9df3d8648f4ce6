"""Socket-style convenience API over the simulated transports.

These wrappers exist so examples and measurement applications read like
ordinary network code.  They are deliberately thin: all protocol logic
lives in :mod:`repro.netsim.udp` and :mod:`repro.netsim.tcp`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.netsim.addresses import IPAddress
from repro.netsim.host import Host
from repro.netsim.tcp import TcpConnection

__all__ = ["UdpSocket", "TcpClient", "TcpServer"]


class UdpSocket:
    """A bound UDP endpoint with a receive queue and optional callback."""

    def __init__(self, host: Host, port: int = 0) -> None:
        self._host = host
        self.port = host.udp.bind(port, self._on_datagram)
        self.received: List[Tuple[bytes, IPAddress, int]] = []
        self.on_receive: Optional[Callable[[bytes, IPAddress, int], None]] = None

    def _on_datagram(self, payload: bytes, src: IPAddress, sport: int) -> None:
        self.received.append((payload, src, sport))
        if self.on_receive is not None:
            self.on_receive(payload, src, sport)

    def sendto(self, payload: bytes, dst: IPAddress, dport: int) -> None:
        """Send a datagram from this socket's port."""
        self._host.udp.sendto(payload, self.port, dst, dport)

    def close(self) -> None:
        """Release the port."""
        self._host.udp.unbind(self.port)


class TcpClient:
    """An active-open TCP endpoint collecting received bytes."""

    def __init__(self, host: Host, dst: IPAddress, dport: int) -> None:
        self._host = host
        self.connected = False
        self.closed = False
        self.failure: Optional[str] = None
        self.received = bytearray()
        self.conn: TcpConnection = host.tcp.connect(dst, dport)
        self.conn.on_connect = self._on_connect
        self.conn.on_data = self.received.extend
        self.conn.on_close = self._on_close
        self.conn.on_fail = self._on_fail

    def _on_connect(self) -> None:
        self.connected = True

    def _on_close(self) -> None:
        self.closed = True

    def _on_fail(self, reason: str) -> None:
        self.failure = reason

    def send(self, data: bytes) -> None:
        self.conn.send(data)

    def close(self) -> None:
        self.conn.close()


class TcpServer:
    """A listening TCP endpoint; collects one byte buffer per connection."""

    def __init__(self, host: Host, port: int) -> None:
        self._host = host
        self.port = port
        self.connections: List[TcpConnection] = []
        self.received: List[bytearray] = []
        self.on_data: Optional[Callable[[TcpConnection, bytes], None]] = None
        host.tcp.listen(port, self._on_accept)

    def _on_accept(self, conn: TcpConnection) -> None:
        buffer = bytearray()
        self.connections.append(conn)
        self.received.append(buffer)

        def data(chunk: bytes, buf=buffer, c=conn) -> None:
            buf.extend(chunk)
            if self.on_data is not None:
                self.on_data(c, chunk)

        def closed() -> None:
            conn.close()  # echo the FIN (passive close)

        conn.on_data = data
        conn.on_close = closed
