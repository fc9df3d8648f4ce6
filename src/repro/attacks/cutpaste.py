"""The cut-and-paste attack (Section 2.2).

"Basic host-pair keying can suffer from a 'cut-and-paste' attack.  That
is, the encrypted payload from one datagram can be cut and inserted into
another datagram without being detected."

Scenario: Alice sends two encrypted UDP datagrams to Bob -- one to a
low-sensitivity service, one carrying a secret.  All host-pair traffic
shares one key and (in the basic scheme) carries no MAC, so the on-path
attacker splices CBC ciphertext blocks of the *secret* datagram into the
*public* datagram's body.  Bob's stack decrypts the splice with the
shared key and delivers secret plaintext to the low-sensitivity port.

Against FBS the identical splice dies on MAC verification: each flow has
its own key and every datagram's MAC covers the whole body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.attacks.adversary import OnPathAdversary
from repro.baselines import install_scheme
from repro.core.errors import ScenarioError
from repro.netsim.ipv4 import IPProtocol, IPv4Packet
from repro.netsim.network import Network
from repro.netsim.sockets import UdpSocket

__all__ = ["CutPasteOutcome", "run_cutpaste_attack"]

_BLOCK = 8

SECRET = b"THE-LAUNCH-CODE-IS-00000000-KEEP-SECRET!"
PUBLIC = b"weather report: sunny, 22C, light breeze"


@dataclass
class CutPasteOutcome:
    """What the splice achieved."""

    scheme: str
    #: The spliced datagram was delivered to the low-sensitivity port.
    splice_delivered: bool
    #: Secret material appeared in what that port received.
    secret_leaked: bool
    #: Bytes the low-sensitivity service received from the splice.
    delivered_payload: bytes = b""


def _build_network(seed: int):
    net = Network(seed=seed)
    net.add_segment("lan", "10.8.0.0")
    alice = net.add_host("alice", segment="lan")
    bob = net.add_host("bob", segment="lan")
    adversary = OnPathAdversary(net.sim, net.segment("lan"))
    # 1997 practice: UDP checksums off for speed; the splice must not be
    # saved by an accidental transport checksum.
    alice.udp.compute_checksums = False
    bob.udp.compute_checksums = False
    return net, alice, bob, adversary


def _send_two(net, alice, bob):
    """Send the public and secret datagrams; return Bob's public inbox."""
    public_inbox = UdpSocket(bob, 6001)
    secret_inbox = UdpSocket(bob, 6002)
    tx_public = UdpSocket(alice, 3001)
    tx_secret = UdpSocket(alice, 3002)
    tx_public.sendto(PUBLIC, bob.address, 6001)
    tx_secret.sendto(SECRET, bob.address, 6002)
    net.sim.run()
    if not (public_inbox.received and secret_inbox.received):
        raise ScenarioError(
            "setup traffic was not delivered: the splice needs both the "
            "public and the secret datagram on the wire"
        )
    return public_inbox


def _splice(adversary: OnPathAdversary, iv_len: int, keep_blocks: int) -> Optional[IPv4Packet]:
    """Build the franken-datagram: public prefix + secret tail.

    Keeps the public datagram's IV and first ``keep_blocks`` ciphertext
    blocks (which decrypt to the UDP header and the payload prefix),
    then grafts the tail of the secret datagram's ciphertext.  One block
    at the seam decrypts to garbage; everything after decrypts to secret
    plaintext because CBC only chains one block deep.
    """
    packets = adversary.captured_packets()
    if len(packets) < 2:
        return None
    public_pkt, secret_pkt = packets[0], packets[1]
    pub = public_pkt.payload
    sec = secret_pkt.payload
    prefix = pub[: iv_len + keep_blocks * _BLOCK]
    tail_blocks = (len(sec) - iv_len) // _BLOCK
    graft_from = iv_len + max(0, tail_blocks - 5) * _BLOCK
    spliced_payload = prefix + sec[graft_from:]
    forged = IPv4Packet(header=public_pkt.header, payload=spliced_payload)
    forged.header.identification = 0xBEEF
    return forged


def run_cutpaste_attack(scheme: str = "host-pair", seed: int = 0) -> CutPasteOutcome:
    """Run the splice against ``scheme`` ("host-pair", "host-pair-mac",
    "fbs", or any other sealing name in :data:`repro.baselines.SCHEMES`)."""
    net, alice, bob, adversary = _build_network(seed)
    sender, _ = install_scheme(scheme, (alice, bob), seed + 7)

    public_inbox = _send_two(net, alice, bob)
    before = len(public_inbox.received)

    # The FBS header in front of the body shifts where ciphertext
    # starts; for host-pair the IV (and MAC) lead.  keep_blocks=2 keeps
    # the UDP header (8B inside the first block) plus a little payload.
    if scheme == "fbs":
        iv_len = sender.endpoint.header_size
    else:
        iv_len = sender.body_offset
    forged = _splice(adversary, iv_len=iv_len, keep_blocks=2)
    if forged is None:
        raise RuntimeError("adversary failed to capture both datagrams")
    adversary.inject_packet(forged, delay=0.5)
    net.sim.run()

    spliced = public_inbox.received[before:]
    delivered = bool(spliced)
    leaked = any(b"SECRET" in payload or b"LAUNCH" in payload for payload, _, _ in spliced)
    return CutPasteOutcome(
        scheme=scheme,
        splice_delivered=delivered,
        secret_leaked=leaked,
        delivered_payload=spliced[0][0] if spliced else b"",
    )
