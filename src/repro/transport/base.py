"""The transport interface: send/recv datagram + clock + close.

A :class:`Transport` is one end of a connected, bidirectional,
unreliable datagram pipe.  It owns three things the protocol layer must
never reach around it for:

* **the clock** -- :meth:`Transport.now` is the only time source a
  transport-driven endpoint sees.  Over the netsim adapter that is the
  host's simulated clock; over real UDP sockets it is the machine's
  monotonic clock.  Keeping the clock on the transport is what
  quarantines real-time reads behind the transport boundary (the
  report-determinism differential's clock shim checks no reading
  reaches a report).
* **datagram I/O** -- ``send``/``recv`` with per-call timeouts.  ``recv``
  returns ``None`` on timeout rather than raising: over an unreliable
  substrate a missing datagram is an ordinary outcome, not an error.
* **shutdown** -- ``close`` stops new traffic and drains what is already
  in flight; datagrams received before the close remain readable.

The surface is ``async`` (the real-socket backend lives on an asyncio
event loop, and the audit hook of ``tests/shim/loopguard.py`` checks
that nothing in it blocks).  The
netsim adapter, whose "loop" is the discrete-event simulator itself,
completes every call without awaiting and also offers the same calls
synchronously (:class:`repro.transport.netsim.NetsimTransport`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.errors import FBSError
from repro.core.header import FBS_HEADER_LEN
from repro.netsim.udp import MAX_UDP_PAYLOAD

__all__ = [
    "MAX_BODY_SIZE",
    "Transport",
    "TransportError",
    "TransportClosedError",
    "TransportStats",
]

#: The largest body whose protected datagram (default suite) fits one
#: UDP datagram: the CLIs' ``--payload-size`` bound.
MAX_BODY_SIZE = MAX_UDP_PAYLOAD - FBS_HEADER_LEN


class TransportError(FBSError):
    """A transport-layer failure (misuse, closed pipe, no substrate)."""


class TransportClosedError(TransportError):
    """Send attempted on a closed transport."""


@dataclass
class TransportStats:
    """Per-transport datagram accounting (one instance per transport)."""

    #: Datagrams handed to the substrate.
    datagrams_sent: int = 0
    #: Datagrams delivered into the receive queue.
    datagrams_received: int = 0
    #: Datagrams dropped because the bounded receive queue was full.
    queue_drops: int = 0
    #: Substrate-reported send/receive errors (ICMP errors and the like).
    transport_errors: int = 0

    def to_dict(self) -> dict:
        return {
            "datagrams_sent": self.datagrams_sent,
            "datagrams_received": self.datagrams_received,
            "queue_drops": self.queue_drops,
            "transport_errors": self.transport_errors,
        }


class Transport:
    """One end of an unreliable datagram pipe (see module docstring)."""

    #: Substrate name, used in reports and error messages.
    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = TransportStats()
        self._closed = False

    # -- clock -----------------------------------------------------------------

    def now(self) -> float:
        """Seconds on this substrate's clock (simulated or monotonic)."""
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        return self._closed

    # -- datagram I/O ----------------------------------------------------------

    async def send(self, payload: bytes) -> None:
        """Send one datagram to the connected peer."""
        raise NotImplementedError

    async def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Receive one datagram, or ``None`` once ``timeout`` seconds of
        this transport's clock pass without one.  ``timeout=None`` waits
        until the substrate can prove nothing further will arrive."""
        raise NotImplementedError

    async def recv_from(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[bytes, Tuple[str, int]]]:
        """:meth:`recv` with the datagram's source address, a
        ``(host_string, port)`` token: a server transport (the gateway)
        talks to many peers and tells them apart by it."""
        raise NotImplementedError

    async def close(self) -> None:
        """Stop new traffic and drain in-flight datagrams."""
        raise NotImplementedError

    async def sleep(self, seconds: float) -> None:
        """Let ``seconds`` of this transport's clock elapse (datagrams
        keep arriving into the receive queue meanwhile).  Retry backoff
        goes through this so the same retry logic runs over simulated
        and real time."""
        raise NotImplementedError

    # -- bookkeeping -----------------------------------------------------------

    def drain(self) -> List[bytes]:
        """Remove and return every queued received datagram (no waiting)."""
        raise NotImplementedError
