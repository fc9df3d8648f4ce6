"""Discrete-event network simulation substrate.

The paper's evaluation ran on real hardware: "Pentium 133s with 512 L2
cache running FreeBSD 2.1.5 ... on a dedicated 10M Ethernet segment"
(Section 7.3).  This package is the substitute testbed: a deterministic
discrete-event simulator providing

* a simulated clock and event scheduler (:mod:`repro.netsim.clock`),
* a shared Ethernet segment (a link is one with two stations) with
  bandwidth, propagation delay, loss, duplication, reordering and
  corruption (:mod:`repro.netsim.link`),
* an IPv4-like network layer with real header serialization, checksums,
  fragmentation/reassembly and TTL-based forwarding
  (:mod:`repro.netsim.ipv4`, :mod:`repro.netsim.fragmentation`),
* a 4.4BSD-shaped host stack whose ``ip_output``/``ip_input`` expose the
  same three-part structure and hook points the paper patched
  (:mod:`repro.netsim.stack`),
* UDP and a simplified TCP (including the ``tcp_output`` exact-fit/DF
  calculation whose interaction with the FBS header required the paper's
  one-file fix) (:mod:`repro.netsim.udp`, :mod:`repro.netsim.tcp`),
* a socket-style API and measurement applications
  (:mod:`repro.netsim.sockets`),
* a calibrated CPU cost model standing in for the Pentium 133
  (:mod:`repro.netsim.costmodel`).

Everything is seeded and deterministic: a topology plus a seed replays
bit-for-bit.
"""

from repro.netsim.clock import Simulator
from repro.netsim.addresses import IPAddress, FiveTuple
from repro.netsim.ipv4 import IPv4Header, IPProtocol, IPv4Packet, checksum16
from repro.netsim.link import LinkConditions, EthernetSegment
from repro.netsim.costmodel import CostModel, PENTIUM_133
from repro.netsim.host import Host
from repro.netsim.network import Network

__all__ = [
    "Simulator",
    "IPAddress",
    "FiveTuple",
    "IPv4Header",
    "IPv4Packet",
    "IPProtocol",
    "checksum16",
    "LinkConditions",
    "EthernetSegment",
    "CostModel",
    "PENTIUM_133",
    "Host",
    "Network",
]
