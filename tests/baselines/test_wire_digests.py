"""Bit-identity gate for the Section 2 schemes' one hook body.

``wire_digests.txt`` was recorded from the five hand-written
``outbound``/``inbound`` pairs *before* they were replaced by
:class:`repro.baselines.sealed.SealedDatagramModule` (a later change of
keying re-recorded its ``sha256=`` fields and nothing else; the file's
header says which); each variant's line must replay exactly: every
tapped frame, the counters, both hosts' CPU seconds and the final
simulated time under the calibrated (symmetric) Pentium-133 model.
After a deliberate wire or cost change,
``PYTHONPATH=src python tests/baselines/test_wire_digests.py`` prints
the lines to paste under the file's comment header.
"""

import hashlib
from pathlib import Path

import pytest

from repro.baselines import install_scheme
from repro.netsim import Network
from repro.netsim.costmodel import PENTIUM_133
from repro.netsim.ipv4 import IPv4Packet
from repro.netsim.sockets import UdpSocket

DIGESTS = Path(__file__).with_name("wire_digests.txt")
VARIANTS = (
    "host-pair",
    "host-pair-mac",
    "host-pair-per-datagram",
    "skip",
    "kdc-session",
    "photuris-session",
)


def digest_line(name: str, seed: int = 100) -> str:
    """3 conversations x 5 datagrams, then three damaged injections."""
    net = Network(seed=1)
    net.add_segment("lan", "10.0.0.0")
    a = net.add_host("a", segment="lan", cost_model=PENTIUM_133)
    b = net.add_host("b", segment="lan", cost_model=PENTIUM_133)
    frames = []
    net.segment("lan").attach_tap(frames.append)
    module_a, module_b = install_scheme(name, (a, b), seed)
    inboxes = [UdpSocket(b, 6000 + i) for i in range(3)]
    senders = [UdpSocket(a, 3000 + i) for i in range(3)]
    for round_ in range(5):
        for i, sender in enumerate(senders):
            sender.sendto(
                b"datagram %d of conversation %d " % (round_, i) + b"x" * (37 * round_),
                b.address,
                6000 + i,
            )
    net.sim.run()

    # One flipped bit, one cut below the scheme's header, one cut
    # mid-body (off the cipher's block boundary).
    first = next(f for f in frames if IPv4Packet.decode(f).header.src == a.address)
    payload = IPv4Packet.decode(first).payload
    for damaged in (
        payload[:-1] + bytes([payload[-1] ^ 1]),
        payload[: module_b.body_offset - 1],
        payload[:-3],
    ):
        packet = IPv4Packet.decode(first)
        packet.payload = damaged
        b.stack.ip_input(packet.encode())
    net.sim.run()

    wire = hashlib.sha256()
    for frame in frames:
        wire.update(len(frame).to_bytes(4, "big") + frame)
    return (
        f"{name} frames={len(frames)} sha256={wire.hexdigest()} "
        f"delivered={sum(len(inbox.received) for inbox in inboxes)} "
        f"protected={module_a.outbound_protected} "
        f"accepted={module_b.inbound_accepted} rejected={module_b.inbound_rejected} "
        f"cpu_a={a.cpu_seconds_used:.9f} cpu_b={b.cpu_seconds_used:.9f} "
        f"now={net.sim.now:.9f} overhead={module_a.header_overhead()}"
    )


def recorded() -> dict:
    lines = [
        line
        for line in DIGESTS.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return {line.split()[0]: line for line in lines}


@pytest.mark.parametrize("name", VARIANTS)
def test_variant_replays_the_recorded_digest(name):
    assert digest_line(name) == recorded()[name]


@pytest.mark.parametrize("name", VARIANTS)
def test_only_the_digest_depends_on_the_keys(name):
    # What a re-record after a keying change may move: another scheme
    # seed is other keys, so the tapped bytes differ -- and no count,
    # CPU charge, virtual time or header overhead does.
    ours, other = (digest_line(name, seed).split() for seed in (100, 101))
    assert len(ours) == len(other)
    assert [a.split("=")[0] for a, b in zip(ours, other) if a != b] == ["sha256"]


def test_every_variant_is_recorded_once():
    assert tuple(recorded()) == VARIANTS


if __name__ == "__main__":
    for variant in VARIANTS:
        print(digest_line(variant))
