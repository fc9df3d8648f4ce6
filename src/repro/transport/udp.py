"""Real UDP sockets behind the :class:`Transport` interface (asyncio).

This is the deployable substrate: the same FBS endpoints, workloads,
and ledgers that run over the in-process netsim run here over actual
kernel sockets -- real scheduling, real loss, real clocks.

Design points, in the order an operator hits them:

* **Event loop, never threads.**  :class:`UdpTransport` rides
  ``asyncio``'s ``DatagramProtocol``; every wait is an ``await``
  (fbslint FBS010 checks, whole-program, that nothing here blocks the
  loop -- not even through a sync helper).
* **Bounded receive queue.**  ``datagram_received`` feeds an
  ``asyncio.Queue(maxsize=recv_queue)``; when the consumer falls
  behind, new datagrams are *dropped and counted*
  (``stats.queue_drops``), exactly what a kernel socket buffer does --
  FBS is built for unreliable substrates, so overload shows up as loss,
  never as unbounded memory.
* **Timeouts, not hangs.**  ``recv`` wraps the queue read in
  ``asyncio.wait_for``; ``None`` means "nothing arrived", an ordinary
  datagram-service outcome the caller (e.g. the first-contact retry in
  :mod:`repro.transport.channel`) turns into a jittered resend.
* **Graceful shutdown.**  ``close`` stops new sends, lets asyncio flush
  its send buffer, and waits (bounded by ``close_timeout``) for the
  endpoint teardown; datagrams already queued stay readable via
  ``recv``/``drain`` so nothing accepted is thrown away.

**Clock quarantine.**  This module is the one place outside
``repro.bench`` allowed to read the real clock (the fbslint FBS002
carve-out): :meth:`UdpTransport.now` is ``time.monotonic``.  Protocol
code never reads time directly -- it takes ``transport.now``, so the
swap from simulated to real time happens entirely behind the transport
boundary.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.transport.base import Transport, TransportClosedError, TransportError

__all__ = ["UdpTransport", "UdpTransportConfig"]


@dataclass(frozen=True)
class UdpTransportConfig:
    """Operator-facing knobs of the real-socket backend.

    Every field is documented in docs/DEPLOYMENT.md (a docs-sync check
    keeps that reference complete).
    """

    #: Bounded receive queue, in datagrams.  Arrivals beyond it are
    #: dropped and counted in ``stats.queue_drops``.
    recv_queue: int = 1024
    #: Default ``recv`` timeout in seconds when the caller passes none.
    recv_timeout: float = 1.0
    #: Upper bound on the graceful-close drain (seconds).
    close_timeout: float = 1.0


class _DatagramQueueProtocol(asyncio.DatagramProtocol):
    """Feeds arrivals into the transport's bounded queue."""

    def __init__(self, owner: "UdpTransport") -> None:
        self._owner = owner

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        owner = self._owner
        queue = owner._queue
        if queue.full():
            owner.stats.queue_drops += 1
            return
        owner.stats.datagrams_received += 1
        queue.put_nowait((data, addr))
        if owner.remote is None:
            # First contact from an unknown peer: adopt it, so a passive
            # responder (the echo server) can answer without out-of-band
            # address exchange.
            owner.remote = addr

    def error_received(self, exc: Exception) -> None:
        self._owner.stats.transport_errors += 1

    def connection_lost(self, exc: Optional[Exception]) -> None:
        closed = self._owner._closed_event
        if closed is not None and not closed.is_set():
            closed.set()


class UdpTransport(Transport):
    """A connected datagram pipe over a real ``asyncio`` UDP socket."""

    name = "udp"

    def __init__(self, config: Optional[UdpTransportConfig] = None) -> None:
        super().__init__()
        self.config = config or UdpTransportConfig()
        self.remote: Optional[Tuple[str, int]] = None
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.recv_queue)
        self._closed_event: Optional[asyncio.Event] = None

    @classmethod
    async def create(
        cls,
        local_addr: Tuple[str, int] = ("127.0.0.1", 0),
        remote: Optional[Tuple[str, int]] = None,
        config: Optional[UdpTransportConfig] = None,
    ) -> "UdpTransport":
        """Bind a socket (port 0 = ephemeral) and return the transport."""
        self = cls(config=config)
        loop = asyncio.get_running_loop()
        self._closed_event = asyncio.Event()
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _DatagramQueueProtocol(self), local_addr=local_addr
        )
        self._transport = transport
        self.remote = remote
        return self

    # -- addressing ------------------------------------------------------------

    @property
    def local_address(self) -> Tuple[str, int]:
        """The bound (host, port) -- hand this to the peer."""
        if self._transport is None:
            raise TransportError("transport not started; use UdpTransport.create()")
        return self._transport.get_extra_info("sockname")[:2]

    def connect(self, remote: Tuple[str, int]) -> None:
        """Set (or re-set) the peer this transport sends to."""
        self.remote = remote

    # -- Transport surface -----------------------------------------------------

    def now(self) -> float:
        # The FBS002 carve-out: the one sanctioned real-clock read
        # outside repro.bench.  Monotonic, so freshness windows and
        # latency math never see wall-clock steps.
        return time.monotonic()

    async def send(self, payload: bytes) -> None:
        if self._closed or self._transport is None:
            raise TransportClosedError("send on closed udp transport")
        if self.remote is None:
            raise TransportError("udp transport has no peer; connect() first")
        # DatagramTransport.sendto never blocks: asyncio buffers and
        # flushes from the loop.
        self._transport.sendto(payload, self.remote)
        self.stats.datagrams_sent += 1

    async def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        arrival = await self.recv_from(timeout)
        return arrival[0] if arrival is not None else None

    async def recv_from(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[bytes, Tuple[str, int]]]:
        if timeout is None:
            timeout = self.config.recv_timeout
        if self._closed and self._queue.empty():
            return None
        if timeout <= 0:
            # A poll.  Before Python 3.12 ``wait_for(get(), 0)`` cancels
            # the ``get`` before it runs: a timeout with datagrams queued.
            return None if self._queue.empty() else self._queue.get_nowait()
        try:
            return await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError:
            return None

    async def send_to(self, payload: bytes, addr: Tuple[str, int]) -> None:
        if self._closed or self._transport is None:
            raise TransportClosedError("send on closed udp transport")
        self._transport.sendto(payload, addr)
        self.stats.datagrams_sent += 1

    async def close(self) -> None:
        """Graceful shutdown: flush buffered sends, tear down the socket.

        Queued *received* datagrams survive the close (readable via
        :meth:`recv` / :meth:`drain`); only new sends are refused.
        """
        if self._closed:
            return
        self._closed = True
        if self._transport is not None:
            self._transport.close()  # flushes the send buffer first
            if self._closed_event is not None:
                try:
                    await asyncio.wait_for(
                        self._closed_event.wait(), self.config.close_timeout
                    )
                except asyncio.TimeoutError:
                    self._transport.abort()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    def drain(self) -> List[bytes]:
        out: List[bytes] = []
        while not self._queue.empty():
            out.append(self._queue.get_nowait()[0])
        return out
