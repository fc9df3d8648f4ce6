"""Passive traffic analysis: what the wire reveals under each scheme.

Encryption hides payloads; it does not hide *structure*.  This scenario
runs identical multi-conversation traffic under a scheme and reports
what a passive observer on the segment learns:

* **payloads and ports** -- readable when nothing seals the datagram
  (GENERIC): the transport header is intact;
* **host pairs** -- readable end to end under every scheme: the IP
  header is not sealed;
* **linkable conversations** -- a label the scheme carries in the clear
  and repeats (GENERIC's 5-tuple, FBS's *sfl*) partitions the traffic
  into its conversations.  (This is inherent to FBS: the label that
  lets the receiver find the flow key without negotiation is the same
  label that lets an observer partition traffic into flows.)  A label
  that never repeats (a wrapped per-datagram key) links nothing, and
  one fixed per host pair (a ticket, an SPI) links only the pair.

With ``gateways`` the two hosts sit on separate LANs behind FBS gateway
tunnels (Section 7.1's site-to-site mode) and the observer taps the WAN:
interior addresses disappear behind the gateway pair, and the tunnel's
flow labels follow whatever the inner datagrams' port fields hold.

The paper does not evaluate this dimension; the scenario makes the
trade-off explicit and quantitative.  It asks the scheme (or the
tunnel) only for its wire layout (``split``).
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from typing import List

from repro.attacks.adversary import OnPathAdversary, tapped_lan
from repro.baselines import install_scheme
from repro.core.deploy import FBSDomain
from repro.core.errors import ScenarioError
from repro.core.ip_mapping import is_bypass
from repro.netsim.ipv4 import IPProtocol, IPv4Packet
from repro.netsim.network import Network
from repro.netsim.sockets import UdpSocket

__all__ = ["TrafficAnalysisReport", "run_traffic_analysis"]

SECRET_BODY = b"OBSERVABLE-SECRET-PAYLOAD"


@dataclass
class TrafficAnalysisReport:
    """What one passive observer extracted from the capture."""

    scheme: str
    datagrams_captured: int = 0
    #: The communicating hosts' addresses appear in IP headers.
    hosts_visible: bool = False
    #: Transport ports are readable in the clear.
    ports_visible: bool = False
    #: Conversations the observer can partition traffic into: labels
    #: seen on two datagrams or more, and at least the one host pair.
    linkable_conversations: int = 0
    #: Application payload bytes readable in the clear.
    payload_readable: bool = False


def _observe(frames: List[bytes], scheme: str, split, hosts: set) -> TrafficAnalysisReport:
    report = TrafficAnalysisReport(scheme=scheme)
    labels: Counter = Counter()
    for frame in frames:
        packet = IPv4Packet.decode(frame)
        # Certificate traffic is infrastructure, not the workload.
        if is_bypass(packet):
            continue
        data = packet.payload
        report.datagrams_captured += 1
        report.hosts_visible |= {packet.header.src, packet.header.dst} == hosts
        report.payload_readable |= SECRET_BODY in data
        # An intact UDP header: its length field matches the datagram.
        if packet.header.proto == IPProtocol.UDP and struct.unpack_from(">H", data, 4)[0] == len(data):
            report.ports_visible = True
            labels[(packet.header.src, packet.header.dst, data[:4])] += 1
        else:
            labels[(packet.header.src, packet.header.dst, split(data)[0])] += 1
    linked = sum(1 for count in labels.values() if count > 1)
    report.linkable_conversations = max(linked, 1) if labels else 0
    return report


def _behind_gateways(net: Network, seed: int):
    """Two LANs joined by a WAN whose gateways tunnel between them."""
    net.add_segment("lan1", "10.0.1.0")
    net.add_segment("lan2", "10.0.2.0")
    net.add_segment("wan", "192.168.0.0")
    alice = net.add_host("alice", segment="lan1")
    bob = net.add_host("bob", segment="lan2")
    gw1 = net.add_router("gw1", segments=["lan1", "wan"])
    gw2 = net.add_router("gw2", segments=["lan2", "wan"])
    net.add_default_route(alice, "lan1", gw1)
    net.add_default_route(bob, "lan2", gw2)
    net.add_default_route(gw1, "wan", gw2)
    net.add_default_route(gw2, "wan", gw1)
    domain = FBSDomain(seed=seed)
    t1 = domain.enroll_gateway(gw1)
    t2 = domain.enroll_gateway(gw2)
    t1.add_peer("10.0.2.0", 24, gw2.address)
    t2.add_peer("10.0.1.0", 24, gw1.address)
    return alice, bob, OnPathAdversary(net.sim, net.segment("wan")), t1


def run_traffic_analysis(
    scheme: str, conversations: int = 4, seed: int = 0, gateways: bool = False
) -> TrafficAnalysisReport:
    """Run the workload under ``scheme`` and analyze the capture."""
    if gateways:
        net = Network(seed=seed)
        alice, bob, adversary, tunnel = _behind_gateways(net, seed + 11)
    else:
        net, alice, bob, adversary = tapped_lan(seed, "10.0.0.0")
    module = install_scheme(scheme, (alice, bob), seed + 11)[0]

    datagrams_each = 5
    inboxes = [UdpSocket(bob, 6000 + i) for i in range(conversations)]
    senders = [UdpSocket(alice, 3000 + i) for i in range(conversations)]
    for round_ in range(datagrams_each):
        for i, sender in enumerate(senders):
            sender.sendto(SECRET_BODY + b"#%d" % round_, bob.address, 6000 + i)
    net.sim.run()
    if not all(len(inbox.received) == datagrams_each for inbox in inboxes):
        raise ScenarioError(
            "workload traffic was not fully delivered; the capture would "
            "not reflect the intended conversation structure"
        )
    layout = tunnel if gateways else module
    return _observe(adversary.captured, scheme, layout.split, {alice.address, bob.address})
