"""Wire hops: how protected datagrams travel inside batch workloads.

The load engine's inner loop is batch-shaped --
``sender.protect_batch(...)`` produces a list of wire datagrams,
``receiver.unprotect_batch(...)`` consumes one.  A :class:`WireHop` is
the pluggable step between the two: it takes the protected batch the
sender emitted and returns the batch the receiver's substrate actually
delivered.

* :class:`DirectHop` -- the historical wiring: the receiver gets a new
  list holding the very datagrams the sender emitted, no substrate at
  all.  This is the default, so every existing load report stays
  byte-identical.
* :class:`NetsimHop` -- each batch is relayed through a
  :class:`~repro.transport.netsim.NetsimTransport` pair over a private
  two-host simulated segment with perfect conditions (lossless,
  in-order), so the ledgers match :class:`DirectHop` exactly while the
  datagrams genuinely traverse the transport interface, the simulated
  UDP/IP stack, and the wire.

``build_hop`` maps the CLI's ``--transport {direct,netsim}`` flag to an
instance; workers construct their hop *inside* the worker process
(hops hold live simulator state and are not picklable).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.netsim.network import Network
from repro.transport.netsim import NetsimTransport, netsim_transport_pair

__all__ = ["WireHop", "DirectHop", "NetsimHop", "build_hop", "HOP_NAMES"]

#: Valid ``--transport`` values, in CLI order.
HOP_NAMES = ("direct", "netsim")

#: The netsim hop's MTU: high enough that one wire datagram stays one
#: frame -- fragmentation timing is netsim-experiment territory, not
#: load-engine territory.
HOP_MTU = 65535


class WireHop:
    """One-way relay of a protected wire batch (see module docstring)."""

    name: str = "abstract"

    def relay(self, wire: Sequence[bytes]) -> List[bytes]:
        """Carry ``wire`` to the receiver; return what arrived, in order."""
        raise NotImplementedError


class DirectHop(WireHop):
    """In-memory hand-off -- the wiring every prior report used: a copy
    of the batch list, the same ``bytes`` objects in it."""

    name = "direct"

    def relay(self, wire: Sequence[bytes]) -> List[bytes]:
        return list(wire)


class NetsimHop(WireHop):
    """Relay through a simulated two-host segment via the transport API.

    The segment uses default (perfect) :class:`LinkConditions`: FBS
    loss behaviour is exercised elsewhere (resilience harness, netsim
    experiments); here the point is that the *transport interface*
    carries the load workload without changing a single ledger entry.
    """

    name = "netsim"

    def __init__(self, seed: int = 0) -> None:
        # A private simulator per hop: workers are isolated processes,
        # and simulated time advances only inside relay().
        self.net = Network(seed=seed)
        self.net.add_segment("hop", "10.99.0.0")
        tx_host = self.net.add_host("hop-tx", segment="hop", mtu=HOP_MTU)
        rx_host = self.net.add_host("hop-rx", segment="hop", mtu=HOP_MTU)
        # Queue bound sized for whole load batches: a perfect link must
        # never drop, or the DirectHop ledger equality breaks.
        self.tx, self.rx = netsim_transport_pair(
            tx_host, rx_host, recv_queue=1 << 20
        )

    def relay(self, wire: Sequence[bytes]) -> List[bytes]:
        for datagram in wire:
            self.tx.send_sync(datagram)
        self.net.sim.run()
        return self.rx.drain()


def build_hop(name: str, seed: int = 0) -> WireHop:
    """Instantiate the hop selected by ``--transport``."""
    if name == "direct":
        return DirectHop()
    if name == "netsim":
        return NetsimHop(seed=seed)
    raise ValueError(f"unknown transport hop {name!r}; expected one of {HOP_NAMES}")
