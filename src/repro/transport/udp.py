"""Real UDP sockets behind the :class:`Transport` interface (asyncio).

This is the deployable substrate: the same FBS endpoints, workloads,
and ledgers that run over the in-process netsim run here over actual
kernel sockets -- real scheduling, real loss, real clocks.

Design points, in the order an operator hits them:

* **Event loop, never threads.**  :class:`UdpTransport` sends through
  ``asyncio``'s datagram endpoint and every wait is an ``await``
  (every test, and every report producer on the differential's shim
  side, runs under an audit hook that fails a blocking call made while
  the loop runs a task: ``tests/shim/loopguard.py``); the one socket
  it reads itself is non-blocking.
* **A receive is harvest -> pop -> only then wait.**  ``recv_from``
  first reads the socket until ``EAGAIN`` (``_harvest``), returns the
  queue's head if there is one -- no event-loop turn, no ``Task``, no
  timer -- and parks only when the kernel and the queue are both empty:
  one future, one ``call_later`` timer, resolved by the next arrival.
  A zero timeout is the same path without the wait (a poll).  One
  receiver at a time: a second ``recv`` while one is parked is a
  :class:`TransportError`.
* **One way into the queue.**  The harvest and the loop's reader
  callback (``datagram_received``, which is what wakes a parked
  receiver) both go through ``_arrive``, so the counts do not depend on
  who read the datagram and arrival order holds across the two.
* **Bounded receive queue, in length and in sojourn.**  At
  ``recv_queue`` datagrams, arrivals are *dropped and counted*
  (``stats.queue_drops``), exactly what the kernel's socket buffer in
  front of it does -- FBS is built for unreliable substrates, so
  overload shows up as loss, never as unbounded memory.  A full queue
  would still make every datagram wait ``recv_queue`` serve times, so
  each entry carries its arrival time.  Once the queue is *standing*
  (every handout for ``INTERVAL`` waited over ``TARGET``), a receive
  expires the heads older than ``TARGET`` (never the last; counted in
  ``queue_drops``, taken out of ``datagrams_received``) and hands out
  the newest, the one still worth serving in a flood, until a receive
  finds the queue empty.  CoDel's sojourn test (RFC 8289's ``TARGET``
  and ``INTERVAL``) without its control law, which needs ~100 s of
  ramp to shed a 3x flood, paired with adaptive LIFO (Maurer, "Fail at
  Scale", 2015).  Otherwise arrival order: a datagram service promises
  no order, and FBS's receive (R1-R12: sfl lookup, timestamp window)
  reads none.  ``drain``/``close`` return arrival order and leave the
  state as it is.
* **A busy socket does not own the loop.**  A consumer that always
  finds a datagram would never yield; after ``_YIELD_AFTER`` receives
  in a row without a loop turn the transport takes one
  (``asyncio.sleep(0)``), so timers, signal handlers and other tasks
  run even under a flood.  The turn comes after the receive has found
  the queue non-empty, so what arrives during it cannot hide an empty
  queue.
* **Timeouts, not hangs.**  ``None`` means "nothing arrived", an
  ordinary datagram-service outcome the caller (e.g. the first-contact
  retry in :mod:`repro.transport.channel`) turns into a jittered
  resend.
* **Graceful shutdown.**  ``close`` stops new sends, takes what the
  socket already holds into the queue (counted like any arrival), lets
  asyncio flush its send buffer, and waits (bounded by
  ``_CLOSE_TIMEOUT``) for the endpoint teardown; everything delivered
  before the close stays readable via ``recv``/``drain``.

**Clock quarantine.**  This module is the one place outside
``repro.bench`` that reads the real clock: :meth:`UdpTransport.now` is
``time.monotonic``, and no report may depend on its absolute value
(the report-determinism differential runs the UDP echo with every
wall clock 10**6 s ahead on one side and requires the same bytes).  Protocol
code never reads time directly -- it takes ``transport.now``, so the
swap from simulated to real time happens entirely behind the transport
boundary.
"""

from __future__ import annotations

import asyncio
import math
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.transport.base import Transport, TransportClosedError, TransportError

__all__ = ["UdpTransport", "UdpTransportConfig"]

#: ``recvfrom`` buffer: no UDP payload is larger.
_MAX_DATAGRAM = 65536
#: ``recv`` timeout in seconds when the caller passes none.
_RECV_TIMEOUT = 1.0
#: Upper bound on the graceful-close drain, seconds.
_CLOSE_TIMEOUT = 1.0
#: Receives in a row served without turning the event loop before one
#: turn is taken: its ~6 us amortise to under 0.4 us a datagram, and a
#: timer or another task waits behind at most 16 datagrams' work.
_YIELD_AFTER = 16
#: A datagram that waited longer than this, seconds, is late.
TARGET = 0.005
#: Seconds every handout must have been late for before the queue stands.
INTERVAL = 0.100


@dataclass(frozen=True)
class UdpTransportConfig:
    """Operator-facing knobs of the real-socket backend.

    Every field is documented in docs/DEPLOYMENT.md (a docs-sync check
    keeps that reference complete).
    """

    #: Bounded receive queue, in datagrams.  Arrivals beyond it are
    #: dropped and counted in ``stats.queue_drops``; so are the stale
    #: heads a standing queue expires.
    recv_queue: int = 1024

    def __post_init__(self) -> None:
        if self.recv_queue < 1:
            raise ValueError("recv_queue must be at least 1")


class _DatagramQueueProtocol(asyncio.DatagramProtocol):
    """The loop's half of the receive path: wakes a parked receiver."""

    def __init__(self, owner: "UdpTransport") -> None:
        self._owner = owner

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self._owner._arrive(data, addr, self._owner.now())

    def error_received(self, exc: Exception) -> None:
        self._owner.stats.transport_errors += 1

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._owner._closed_event.set()  # created before the endpoint


class UdpTransport(Transport):
    """A connected datagram pipe over a real ``asyncio`` UDP socket."""

    name = "udp"

    def __init__(self, config: Optional[UdpTransportConfig] = None) -> None:
        super().__init__()
        self.config = config or UdpTransportConfig()
        self.remote: Optional[Tuple[str, int]] = None
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._sock: Optional[socket.socket] = None
        #: (payload, address, arrival time) in arrival order.
        self._queue: Deque[Tuple[bytes, Tuple[str, int], float]] = deque()
        #: When the current run of late handouts began (inf: none).
        self._late_since = math.inf
        self._waiter: Optional["asyncio.Future[None]"] = None
        self._turnless = 0
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
        # The endpoint's own non-blocking socket, for the harvest: the
        # wrapper asyncio hands out has no recvfrom, its dup() does.
        self._sock = transport.get_extra_info("socket").dup()
        self._sock.setblocking(False)
        self.remote = remote
        return self

    # -- addressing ------------------------------------------------------------

    @property
    def local_address(self) -> Tuple[str, int]:
        """The bound (host, port) -- hand this to the peer."""
        if self._transport is None:
            raise TransportError("transport not started; use UdpTransport.create()")
        return self._transport.get_extra_info("sockname")[:2]

    # -- receive path: harvest -> expire -> pop -> only then wait --------------

    def _arrive(self, data: bytes, addr: Tuple[str, int], now: float) -> None:
        """The one way into the receive queue, for both readers."""
        if len(self._queue) >= self.config.recv_queue:
            self.stats.queue_drops += 1
            return
        self.stats.datagrams_received += 1
        self._queue.append((data, addr, now))
        if self.remote is None:
            # First contact from an unknown peer: adopt it, so a passive
            # responder (the echo server) can answer without out-of-band
            # address exchange.
            self.remote = addr
        self._wake()

    def _wake(self) -> None:
        """Resume the parked receiver (an arrival, or its timer)."""
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    def _harvest(self, now: float) -> None:
        """Take everything the kernel already holds, without waiting;
        ``now`` is the arrival time of all of it."""
        sock = self._sock
        if sock is None:
            return
        try:
            while True:
                self._arrive(*sock.recvfrom(_MAX_DATAGRAM), now)
        except BlockingIOError:
            pass
        except OSError:
            self.stats.transport_errors += 1

    # -- Transport surface -----------------------------------------------------

    def now(self) -> float:
        # The one sanctioned real-clock read outside repro.bench.
        # Monotonic, so freshness windows and latency math never see
        # wall-clock steps.
        return time.monotonic()

    async def send(self, payload: bytes) -> None:
        if self._closed or self._transport is None:
            raise TransportClosedError("send on closed udp transport")
        if self.remote is None:
            raise TransportError("udp transport has no peer yet")
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
        if self._waiter is not None:
            raise TransportError("udp transport already has a receiver waiting")
        now = self.now()
        self._harvest(now)
        queue = self._queue
        if not queue:
            self._late_since = math.inf
            if timeout is None:
                timeout = _RECV_TIMEOUT
            if self._closed or timeout <= 0:
                return None
            # Kernel and queue both empty: park on one future, resolved
            # by the next arrival or by the timer.  Not asyncio.timeout:
            # at expiry it cancels the awaiting task and turns the
            # CancelledError into a TimeoutError, where this timer only
            # wakes the future, and it costs more a park even when
            # nothing expires (EXPERIMENTS.md "The Python floor").
            self._turnless = 0
            loop = asyncio.get_running_loop()
            self._waiter = loop.create_future()
            timer = loop.call_later(timeout, self._wake)
            try:
                await self._waiter
            finally:
                timer.cancel()
                self._waiter = None
            if not queue:
                return None
            data, addr, _arrived = queue.popleft()
            return data, addr
        if self._turnless == _YIELD_AFTER:
            # A sender who keeps the socket non-empty must not starve
            # the loop's other tasks and timers.  Taken only now: an
            # arrival during the turn must not hide that this receive
            # found the queue empty, which ends a standing run.
            self._turnless = 0
            await asyncio.sleep(0)
        self._turnless += 1
        if now - self._late_since >= INTERVAL:
            # Standing: what waited past TARGET is expired, the newest
            # served; only a receive that finds the queue empty ends it.
            expired = 0
            while len(queue) > 1 and now - queue[0][2] > TARGET:
                queue.popleft()
                expired += 1
            self.stats.queue_drops += expired
            self.stats.datagrams_received -= expired
            data, addr, _arrived = queue.pop()
            return data, addr
        data, addr, arrived = queue.popleft()
        if now - arrived <= TARGET:
            self._late_since = math.inf
        elif self._late_since == math.inf:
            self._late_since = now
        return data, addr

    async def close(self) -> None:
        """Graceful shutdown: flush buffered sends, tear down the socket.

        What the socket held at the close is taken into the queue (and
        counted) first; queued *received* datagrams survive the close
        (readable via :meth:`recv` / :meth:`drain`); only new sends are
        refused.
        """
        if self._closed:
            return
        self._closed = True
        if self._transport is not None:
            self._harvest(self.now())
            self._sock.close()
            self._sock = None
            self._transport.close()  # flushes the send buffer first
            try:
                await asyncio.wait_for(self._closed_event.wait(), _CLOSE_TIMEOUT)
            except asyncio.TimeoutError:
                self._transport.abort()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    def drain(self) -> List[bytes]:
        self._harvest(self.now())
        out = [payload for payload, _addr, _arrived in self._queue]
        self._queue.clear()
        return out
