"""Key-compromise blast radius: FBS vs. host-pair keying vs. SKIP.

Section 6.1: "Under host-pair keying, easy access to the master key is
available as it is used to directly encrypt the traffic.  Under FBS, the
master key is never used for encryption, and breaking a flow key does
not help in recovering the master key nor compromising other flow keys."

Section 7.4 (vs. SKIP): "a compromised (flow) key only affects datagrams
within that flow -- it does not provide access to the master key which
can be used to 'unlock' all datagrams between a pair of hosts."

The analysis runs a mixed workload (several flows between two hosts)
over each scheme, records all ciphertext, steals exactly one
traffic-protection key of the scheme's natural granularity, and counts
how many of the recorded datagrams that single key decrypts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List

from repro.attacks.adversary import OnPathAdversary
from repro.baselines import install_scheme
from repro.core.errors import ScenarioError
from repro.core.header import FBSHeader
from repro.core.keying import KeyDerivation, Principal
from repro.crypto.des import DES
from repro.crypto.modes import decrypt_cbc
from repro.netsim.ipv4 import IPProtocol
from repro.netsim.network import Network
from repro.netsim.sockets import UdpSocket

__all__ = ["CompromiseReport", "run_compromise_analysis"]

_MARKER = b"flowdata:"


@dataclass
class CompromiseReport:
    """Result of one scheme's compromise analysis."""

    scheme: str
    total_datagrams: int
    decryptable_with_one_key: int
    flows_on_wire: int

    @property
    def exposure(self) -> float:
        """Fraction of recorded traffic one stolen key exposes."""
        if not self.total_datagrams:
            return 0.0
        return self.decryptable_with_one_key / self.total_datagrams


def _traffic(net, alice, bob, flows: int, datagrams_per_flow: int) -> None:
    """Several concurrent conversations alice -> bob."""
    inboxes = [UdpSocket(bob, 6000 + i) for i in range(flows)]
    senders = [UdpSocket(alice, 3000 + i) for i in range(flows)]
    for burst in range(datagrams_per_flow):
        for i, sender in enumerate(senders):
            sender.sendto(
                _MARKER + struct.pack(">HH", i, burst) + b"x" * 64,
                bob.address,
                6000 + i,
            )
    net.sim.run()
    for inbox in inboxes:
        if len(inbox.received) != datagrams_per_flow:
            raise ScenarioError(
                f"inbox on port {inbox.port} received {len(inbox.received)} "
                f"datagrams, expected {datagrams_per_flow}"
            )


def _decrypts(key: bytes, iv: bytes, body: bytes) -> bool:
    """Does DES-CBC(key) decrypt body to recognizable plaintext?"""
    try:
        plaintext = decrypt_cbc(DES(key), iv, body)
    except ValueError:
        return False
    return _MARKER in plaintext


def run_compromise_analysis(
    scheme: str, flows: int = 6, datagrams_per_flow: int = 4, seed: int = 0
) -> CompromiseReport:
    """Steal one traffic key under ``scheme``; count what it unlocks."""
    net = Network(seed=seed)
    net.add_segment("lan", "10.6.0.0")
    alice = net.add_host("alice", segment="lan")
    bob = net.add_host("bob", segment="lan")
    adversary = OnPathAdversary(net.sim, net.segment("lan"))
    if scheme not in ("fbs", "host-pair", "skip"):
        raise ValueError(f"unknown scheme {scheme!r}")
    sender, _ = install_scheme(scheme, (alice, bob), seed + 9)
    victim = Principal.from_ip(bob.address)

    _traffic(net, alice, bob, flows, datagrams_per_flow)

    # Everything alice sent to bob's data ports, as recorded on the wire.
    recorded = [
        p
        for p in adversary.captured_packets()
        if p.header.src == alice.address and p.header.proto == IPProtocol.UDP
    ]
    total = len(recorded)

    decryptable = 0
    flows_on_wire = flows
    if scheme == "fbs":
        # Steal exactly one flow key: derive it the way the endpoint did,
        # using the (stolen) sfl from one datagram plus the master key --
        # but the attacker only gets the *flow key*, so model that by
        # deriving one and trying it everywhere.
        suite = sender.config.suite
        header = FBSHeader.decode(recorded[0].payload, suite)
        kdf = KeyDerivation(suite)
        master = sender.endpoint.mkd.master_key(victim)
        stolen = kdf.flow_key(header.sfl, master, sender.endpoint.principal, victim)
        sfls = set()
        for packet in recorded:
            ph = FBSHeader.decode(packet.payload, suite)
            sfls.add(ph.sfl)
            body = packet.payload[sender.endpoint.header_size :]
            if _decrypts(kdf.encryption_key(stolen), ph.iv(), body):
                decryptable += 1
        flows_on_wire = len(sfls)
    elif scheme == "host-pair":
        stolen, _ = sender.traffic_keys(victim)
        for packet in recorded:
            _, iv, _, body = sender.split(packet.payload)
            if _decrypts(stolen, iv, body):
                decryptable += 1
        flows_on_wire = 1
    else:  # skip
        n = 0  # the simulation runs inside one key interval
        stolen_kijn = sender.interval_key(victim, n)
        for packet in recorded:
            prefix, iv, _, body = sender.split(packet.payload)
            # The scheme, not the attacker, knows how its prefix wraps Kp.
            if _decrypts(sender.packet_key(stolen_kijn, prefix), iv, body):
                decryptable += 1
        flows_on_wire = 1

    return CompromiseReport(
        scheme=scheme,
        total_datagrams=total,
        decryptable_with_one_key=decryptable,
        flows_on_wire=flows_on_wire,
    )
