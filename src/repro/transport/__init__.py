"""Datagram substrates behind one interface.

The FBS protocol engine (:class:`repro.core.protocol.FBSEndpoint`) is
layer-independent: it consumes and produces byte strings and "assumes
only the availability of an underlying (insecure) datagram transport".
This package makes that underlying transport an explicit, swappable
object -- :class:`~repro.transport.base.Transport`: send/recv datagram
plus a clock plus close -- with two implementations:

* :class:`~repro.transport.netsim.NetsimTransport` -- an adapter over
  the in-process discrete-event simulator (``repro.netsim``).  Purely
  simulated time, byte-identical to wiring a
  :class:`~repro.netsim.sockets.UdpSocket` by hand (differential
  tests pin this), so every existing workload, invariant, and report
  stays exactly as it was.
* :class:`~repro.transport.udp.UdpTransport` -- real ``asyncio`` UDP
  sockets (``DatagramProtocol``), bounded receive queues, send/recv
  timeouts, and jittered retry for the zero-message-keying
  first-contact path.  This is the deployable substrate: kernel
  scheduling, real loss, real clocks.

Real-clock access is quarantined to :mod:`repro.transport.udp`;
everything else in the package -- adapter, channel, runner, reports --
stays deterministic, and the byte-stable report discipline
(``tests/test_report_determinism.py``, whose second side runs with
every wall clock 10**6 s ahead) applies to this package like any other
report producer.
"""

from repro.transport.base import (
    Transport,
    TransportClosedError,
    TransportError,
    TransportStats,
)
from repro.transport.channel import SecureChannel, channel_pair
from repro.transport.hop import DirectHop
from repro.transport.netsim import NetsimTransport, netsim_transport_pair
from repro.transport.udp import UdpTransport, UdpTransportConfig

__all__ = [
    "Transport",
    "TransportError",
    "TransportClosedError",
    "TransportStats",
    "SecureChannel",
    "channel_pair",
    "DirectHop",
    "NetsimTransport",
    "netsim_transport_pair",
    "UdpTransport",
    "UdpTransportConfig",
]
