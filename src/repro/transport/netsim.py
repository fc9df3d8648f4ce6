"""The netsim substrate behind the :class:`Transport` interface.

A :class:`NetsimTransport` wraps one simulated host's UDP layer: sends
go straight through :meth:`repro.netsim.udp.UdpLayer.sendto` (the exact
call a hand-wired :class:`~repro.netsim.sockets.UdpSocket` makes --
differential tests pin byte-identical wire behaviour), receives land in
a bounded queue fed by the port binding, and the clock is the host's
view of simulated time.

Because the simulator *is* this substrate's event loop, ``recv`` simply
runs the simulation forward until a datagram arrives, the virtual
deadline passes, or the event queue empties -- all in virtual time, no
wall clock anywhere (the report-determinism differential's clock
shim would show one in the netsim echo's report).  Each
call exists in a ``*_sync`` form, and the async :class:`Transport`
surface wraps it without ever awaiting, so the same driver coroutines
run over netsim and real UDP.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.netsim.addresses import IPAddress
from repro.netsim.host import Host
from repro.transport.base import Transport, TransportClosedError

__all__ = ["NetsimTransport", "netsim_transport_pair"]

#: Default bounded receive queue, mirroring the UDP backend's default.
DEFAULT_QUEUE = 1024


def _noop() -> None:
    """Sentinel event body: exists only to bound a recv deadline."""


class NetsimTransport(Transport):
    """A connected datagram pipe over one simulated host's UDP stack."""

    name = "netsim"

    def __init__(
        self,
        host: Host,
        local_port: int = 0,
        remote: Optional[Tuple[IPAddress, int]] = None,
        recv_queue: int = DEFAULT_QUEUE,
    ) -> None:
        if recv_queue < 1:
            raise ValueError("recv_queue must be at least 1")
        super().__init__()
        self.host = host
        self.local_port = host.udp.bind(local_port, self._on_datagram)
        self.remote = remote
        #: (payload, (source_ip_string, source_port)) -- the address is
        #: the substrate token the addressed surface hands back out.
        self._queue: Deque[Tuple[bytes, Tuple[str, int]]] = deque()
        self._maxsize = recv_queue

    # -- plumbing --------------------------------------------------------------

    def _on_datagram(self, payload: bytes, src: IPAddress, sport: int) -> None:
        if len(self._queue) >= self._maxsize:
            self.stats.queue_drops += 1
            return
        self.stats.datagrams_received += 1
        self._queue.append((payload, (str(src), sport)))

    # -- Transport surface -----------------------------------------------------

    def now(self) -> float:
        return self.host.clock.now()

    def send_sync(self, payload: bytes) -> None:
        if self._closed:
            raise TransportClosedError(f"send on closed {self.name} transport")
        if self.remote is None:
            raise TransportClosedError("netsim transport has no peer")
        dst, dport = self.remote
        self.host.udp.sendto(payload, self.local_port, dst, dport)
        self.stats.datagrams_sent += 1

    def recv_sync(self, timeout: Optional[float] = None) -> Optional[bytes]:
        arrival = self.recv_from_sync(timeout)
        return arrival[0] if arrival is not None else None

    def recv_from_sync(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[bytes, Tuple[str, int]]]:
        # The simulator is this substrate's event loop: advance it one
        # event at a time so we stop the instant our binding fires, and
        # never execute an event scheduled past the virtual deadline (a
        # sentinel event at the deadline bounds the walk -- same-instant
        # events fire in insertion order, so nothing later ever runs).
        sim = self.host.sim
        if timeout is not None and timeout <= 0:
            return self._queue.popleft() if self._queue else None
        if timeout is None:
            while not self._queue and sim.step():
                pass
        else:
            deadline = sim.now + timeout
            sentinel = sim.schedule_at(deadline, _noop)
            try:
                while not self._queue:
                    if not sim.step() or sim.now >= deadline:
                        break
            finally:
                sentinel.cancel()
        return self._queue.popleft() if self._queue else None

    def close_sync(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.host.udp.unbind(self.local_port)

    def sleep_sync(self, seconds: float) -> None:
        self.host.sim.run(until=self.host.sim.now + seconds)

    def drain(self) -> List[bytes]:
        out = [payload for payload, _addr in self._queue]
        self._queue.clear()
        return out

    # -- the async surface: the same calls, never awaiting ---------------------

    async def send(self, payload: bytes) -> None:
        self.send_sync(payload)

    async def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        return self.recv_sync(timeout)

    async def recv_from(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[bytes, Tuple[str, int]]]:
        return self.recv_from_sync(timeout)

    async def close(self) -> None:
        self.close_sync()

    async def sleep(self, seconds: float) -> None:
        self.sleep_sync(seconds)


def netsim_transport_pair(
    host_a: Host,
    host_b: Host,
    port_a: int = 4000,
    port_b: int = 4001,
    recv_queue: int = DEFAULT_QUEUE,
) -> Tuple[NetsimTransport, NetsimTransport]:
    """Two connected transports over an existing two-host topology."""
    t_a = NetsimTransport(
        host_a, local_port=port_a, remote=(host_b.address, port_b),
        recv_queue=recv_queue,
    )
    t_b = NetsimTransport(
        host_b, local_port=port_b, remote=(host_a.address, port_a),
        recv_queue=recv_queue,
    )
    return t_a, t_b
