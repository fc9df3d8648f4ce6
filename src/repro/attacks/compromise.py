"""Key-compromise blast radius under any scheme (Sections 6.1, 7.4).

Section 6.1: "Under host-pair keying, easy access to the master key is
available as it is used to directly encrypt the traffic.  Under FBS, the
master key is never used for encryption, and breaking a flow key does
not help in recovering the master key nor compromising other flow keys."

Section 7.4 (vs. SKIP): "a compromised (flow) key only affects datagrams
within that flow -- it does not provide access to the master key which
can be used to 'unlock' all datagrams between a pair of hosts."

The analysis runs a mixed workload (several flows between two hosts)
over a scheme, records all of it, and counts the recorded datagrams two
thefts open.  Both are read off the receiver through its own
``receive_keys``, so the scheme, not this module, says what a key is:

* **one traffic key** -- the keys that open the first recorded datagram
  (``K_f`` under FBS, the pair key itself under host-pair keying, a
  per-datagram key under SKIP);
* **the pair key** -- everything the receiver can key for that sender,
  which is what holding ``K_{S,D}`` (or SKIP's ``K_ij``) gives.  The
  sender runs the same workload to a third host as well, so the report
  also says what that key opens of a pair it does not belong to.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.attacks.adversary import tapped_lan
from repro.baselines import install_scheme
from repro.core.errors import ScenarioError
from repro.crypto.des import DES
from repro.crypto.modes import decrypt_cbc
from repro.netsim.ipv4 import IPProtocol
from repro.netsim.sockets import UdpSocket

__all__ = ["CompromiseReport", "run_compromise_analysis"]

_MARKER = b"flowdata:"


@dataclass
class CompromiseReport:
    """Result of one scheme's compromise analysis."""

    scheme: str
    total_datagrams: int
    #: Recorded datagrams the keys of the first one open.
    decryptable_with_one_key: int
    #: Recorded datagrams the receiver's keying for the sender opens.
    decryptable_with_pair_key: int
    #: Of as many datagrams to the third host, those that keying opens.
    decryptable_in_other_pair: int

    @property
    def exposure(self) -> float:
        """Fraction of recorded traffic one stolen key exposes."""
        if not self.total_datagrams:
            return 0.0
        return self.decryptable_with_one_key / self.total_datagrams


def _traffic(net, alice, bob, flows: int, datagrams_per_flow: int) -> None:
    """Several concurrent conversations alice -> bob."""
    inboxes = [UdpSocket(bob, 6000 + i) for i in range(flows)]
    senders = [UdpSocket(alice) for _ in range(flows)]
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


def _reads(keys: Optional[Tuple[bytes, bytes]], iv: bytes, body: bytes) -> bool:
    """Does ``body`` read as workload plaintext, in the clear or under
    DES-CBC with the cipher key of ``keys``?"""
    if _MARKER in body:
        return True
    if keys is None:
        return False
    try:
        return _MARKER in decrypt_cbc(DES(keys[0]), iv, body)
    except ValueError:
        return False


def run_compromise_analysis(
    scheme: str, flows: int = 6, datagrams_per_flow: int = 4, seed: int = 0
) -> CompromiseReport:
    """Steal a traffic key and the pair key under ``scheme``; count what
    each unlocks."""
    net, alice, bob, adversary = tapped_lan(seed, "10.6.0.0")
    carol = net.add_host("carol", segment="lan")
    _, receiver, _ = install_scheme(scheme, (alice, bob, carol), seed + 9)

    _traffic(net, alice, bob, flows, datagrams_per_flow)
    _traffic(net, alice, carol, flows, datagrams_per_flow)

    # Everything alice sent to each host's data ports, as recorded on
    # the wire, split the way the receiver splits it.
    def recorded(host):
        return [
            (p, receiver.split(p.payload))
            for p in adversary.captured_packets()
            if p.header.src == alice.address
            and p.header.dst == host.address
            and p.header.proto == IPProtocol.UDP
        ]

    def opened_by_pair_key(capture):
        return sum(
            _reads(receiver.receive_keys(packet, prefix), iv, body)
            for packet, (prefix, iv, _, body) in capture
        )

    to_bob, to_carol = recorded(bob), recorded(carol)
    first, (prefix, _, _, _) = to_bob[0]
    stolen = receiver.receive_keys(first, prefix)
    return CompromiseReport(
        scheme=scheme,
        total_datagrams=len(to_bob),
        decryptable_with_one_key=sum(_reads(stolen, iv, body) for _, (_, iv, _, body) in to_bob),
        decryptable_with_pair_key=opened_by_pair_key(to_bob),
        decryptable_in_other_pair=opened_by_pair_key(to_carol),
    )
