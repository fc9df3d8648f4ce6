"""The cut-and-paste attack (Section 2.2).

"Basic host-pair keying can suffer from a 'cut-and-paste' attack.  That
is, the encrypted payload from one datagram can be cut and inserted into
another datagram without being detected."

Scenario: Alice sends two UDP datagrams to Bob -- one to a
low-sensitivity service, one carrying a secret.  The on-path attacker
splices the tail of the *secret* datagram's body into the *public*
datagram.  Where both datagrams are sealed under one key and nothing
binds a body to its header (basic host-pair keying: one pair key, no
MAC), Bob's stack decrypts the splice and delivers secret plaintext to
the low-sensitivity port.

Against FBS the identical splice dies on MAC verification: each flow has
its own key and every datagram's MAC covers the whole body.  The attack
asks the scheme only where a datagram's body starts (``split``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.adversary import OnPathAdversary, tapped_lan
from repro.baselines import install_scheme
from repro.core.errors import ScenarioError
from repro.netsim.ipv4 import IPv4Packet
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


def _splice(adversary: OnPathAdversary, body_offset: int, keep_blocks: int) -> IPv4Packet:
    """Build the franken-datagram: public prefix + secret tail.

    Keeps the public datagram's header, IV and first ``keep_blocks``
    body blocks (which decrypt to the UDP header and the payload
    prefix), then grafts the tail of the secret datagram's body.  One
    block at the seam decrypts to garbage; everything after decrypts to
    secret plaintext because CBC only chains one block deep.
    """
    packets = adversary.captured_packets()
    public_pkt, secret_pkt = packets[0], packets[1]
    pub = public_pkt.payload
    sec = secret_pkt.payload
    prefix = pub[: body_offset + keep_blocks * _BLOCK]
    tail_blocks = (len(sec) - body_offset) // _BLOCK
    graft_from = body_offset + max(0, tail_blocks - 5) * _BLOCK
    forged = IPv4Packet(header=public_pkt.header, payload=prefix + sec[graft_from:])
    forged.header.identification = 0xBEEF
    return forged


def run_cutpaste_attack(scheme: str = "host-pair", seed: int = 0) -> CutPasteOutcome:
    """Run the splice against any scheme in :data:`repro.baselines.SCHEMES`."""
    net, alice, bob, adversary = tapped_lan(seed, "10.8.0.0")
    # 1997 practice: UDP checksums off for speed; the splice must not be
    # saved by an accidental transport checksum.
    alice.udp.compute_checksums = False
    bob.udp.compute_checksums = False
    sender, _ = install_scheme(scheme, (alice, bob), seed + 7)

    public_inbox = _send_two(net, alice, bob)
    before = len(public_inbox.received)

    # keep_blocks=2 keeps the UDP header (8B inside the first block)
    # plus a little payload.
    public = adversary.captured_packets()[0].payload
    body_offset = len(public) - len(sender.split(public)[3])
    adversary.inject_packet(_splice(adversary, body_offset, keep_blocks=2), delay=0.5)
    net.sim.run()

    spliced = public_inbox.received[before:]
    leaked = any(b"SECRET" in payload or b"LAUNCH" in payload for payload, _, _ in spliced)
    return CutPasteOutcome(
        scheme=scheme,
        splice_delivered=bool(spliced),
        secret_leaked=leaked,
        delivered_payload=spliced[0][0] if spliced else b"",
    )
