"""Passive traffic analysis: what the wire reveals under each scheme.

Encryption hides payloads; it does not hide *structure*.  This scenario
runs identical multi-conversation traffic under three deployments and
reports what a passive observer on the segment learns:

* **GENERIC** -- everything: payloads, endpoints, ports, conversations.
* **End-to-end FBS (encrypted)** -- payloads and transport headers are
  ciphertext, so ports vanish; but host addresses remain, and the
  cleartext *sfl* links all datagrams of a flow together, so the
  observer can still count conversations and profile their volumes.
  (This is inherent to FBS: the label that lets the receiver find the
  flow key without negotiation is the same label that lets an observer
  partition traffic into flows.)
* **FBS gateway tunnels** -- interior addresses disappear behind the
  gateway pair; the observer sees flow labels between gateways only.

The paper does not evaluate this dimension; the scenario makes the
trade-off explicit and quantitative.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.attacks.adversary import OnPathAdversary
from repro.baselines import install_scheme
from repro.core.config import AlgorithmSuite
from repro.core.deploy import FBSDomain
from repro.core.errors import HeaderFormatError, ScenarioError
from repro.core.header import FBSHeader
from repro.core.ip_mapping import CERTIFICATE_PORT, is_bypass
from repro.netsim.ipv4 import IPProtocol, IPv4Packet
from repro.netsim.network import Network
from repro.netsim.sockets import UdpSocket

__all__ = ["TrafficAnalysisReport", "run_traffic_analysis"]

SECRET_BODY = b"OBSERVABLE-SECRET-PAYLOAD"


@dataclass
class TrafficAnalysisReport:
    """What one passive observer extracted from the capture."""

    scheme: str
    datagrams_captured: int
    #: Distinct (src, dst) host pairs visible in IP headers.
    endpoint_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    #: Distinct transport ports readable in cleartext.
    ports_visible: Set[int] = field(default_factory=set)
    #: Conversations the observer can partition traffic into
    #: (by 5-tuple when ports are visible, else by sfl).
    linkable_conversations: int = 0
    #: Application payload bytes readable in the clear.
    payload_readable: bool = False


def _observe(frames: List[bytes], scheme: str, data_hosts: Set[str]) -> TrafficAnalysisReport:
    report = TrafficAnalysisReport(scheme=scheme, datagrams_captured=0)
    suite = AlgorithmSuite()
    conversations: Set[bytes] = set()
    for frame in frames:
        try:
            packet = IPv4Packet.decode(frame)
        except ValueError:
            continue
        pair = (str(packet.header.src), str(packet.header.dst))
        # Certificate traffic is infrastructure, not the workload.
        if is_bypass(packet, {CERTIFICATE_PORT}):
            continue
        if pair[0] not in data_hosts and pair[1] not in data_hosts:
            continue
        report.datagrams_captured += 1
        report.endpoint_pairs.add(pair)
        if SECRET_BODY in packet.payload:
            report.payload_readable = True

        if scheme == "generic":
            if packet.header.proto == IPProtocol.UDP and len(packet.payload) >= 4:
                sport, dport = struct.unpack_from(">HH", packet.payload, 0)
                report.ports_visible.update((sport, dport))
                conversations.add(packet.payload[:4] + packet.header.src.to_bytes())
        else:
            # FBS variants: the observer reads the cleartext sfl.
            try:
                header = FBSHeader.decode(packet.payload, suite)
            except HeaderFormatError:
                continue
            conversations.add(header.sfl.to_bytes(8, "big"))
    report.linkable_conversations = len(conversations)
    return report


def run_traffic_analysis(scheme: str, conversations: int = 4, datagrams_each: int = 5, seed: int = 0) -> TrafficAnalysisReport:
    """Run the workload under ``scheme`` and analyze the capture."""
    net = Network(seed=seed)
    if scheme == "fbs-gateway":
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
        adversary = OnPathAdversary(net.sim, net.segment("wan"))
        domain = FBSDomain(seed=seed + 11)
        t1 = domain.enroll_gateway(gw1)
        t2 = domain.enroll_gateway(gw2)
        t1.add_peer("10.0.2.0", 24, gw2.address)
        t2.add_peer("10.0.1.0", 24, gw1.address)
    else:
        net.add_segment("lan", "10.0.0.0")
        alice = net.add_host("alice", segment="lan")
        bob = net.add_host("bob", segment="lan")
        adversary = OnPathAdversary(net.sim, net.segment("lan"))
        if scheme not in ("generic", "fbs"):
            raise ValueError(f"unknown scheme {scheme!r}")
        install_scheme(scheme, (alice, bob), seed + 11)

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

    data_hosts = {str(alice.address), str(bob.address)}
    if scheme == "fbs-gateway":
        # The WAN observer never sees interior addresses; the relevant
        # capture filter is the gateway pair.
        data_hosts = {str(gw1.address), str(gw2.address)}
    return _observe(adversary.captured, scheme, data_hosts)
