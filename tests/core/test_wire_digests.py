"""Bit-identity gate for FBS's own wire.

The gate every simplicity PR cites as "hold wire bytes", written down:
one seeded endpoint pair, a fixed clock and six bodies of fixed sizes,
MAC-only and secret, sent one ``protect`` at a time (n=1, the scalar
kernels) and as one ``protect_batch`` (the MAC, CBC-encrypt and decrypt
lanes; six bodies are past the CBC-encrypt lane crossover).  Each line of
``wire_digests.txt`` is the SHA-256 of what went on the wire plus what
the receiver made of it, two damaged copies included.  Both kernel sets
must replay every line, and the two lines of a secrecy mode are equal
because wire bytes do not depend on how a stream is cut into batches.
(The Section 2 baselines' wire is
pinned the same way in ``tests/baselines/wire_digests.txt``.)  The
lines are also *derived*: ``test_the_specification_derives_the_recorded_digest``
recomputes each from the executable specification
(``tests/spec/fbs_spec.py``), taking only each header's sfl and
confounder from the seeded run, so a re-record is checked against the
paper rather than trusted.  After a deliberate wire change
``PYTHONPATH=src python tests/core/test_wire_digests.py`` prints the new
lines.
"""

import hashlib
import struct
from pathlib import Path

import pytest

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.errors import FBSError
from repro.core.keying import Principal
from repro.obs.events import REJECTION_REASONS
from tests.spec.fbs_spec import Domain, spec_receive, spec_send

DIGESTS = Path(__file__).with_name("wire_digests.txt")
VARIANTS = ("mac-single", "mac-batch", "secret-single", "secret-batch")
#: Empty, sub-block, one block, a 64 B gateway body, off the block
#: boundary, and past the single-lane crossover.
SIZES = (0, 1, 8, 64, 513, 1500)
NOW = 86_400.5


def seeded_run(name, vectorize=True, seed=19):
    """The workload's sending half: ``(domain, alice, bob, bodies, wires)``."""
    secret, cut = name.startswith("secret"), name.split("-")[1]
    domain = FBSDomain(seed=seed, config=FBSConfig(vectorize=vectorize))
    alice = domain.make_endpoint(Principal.from_name("alice"), now=lambda: NOW)
    bob = domain.make_endpoint(Principal.from_name("bob"), now=lambda: NOW)
    bodies = [bytes((i + j) % 251 for j in range(size)) for i, size in enumerate(SIZES)]
    if cut == "single":
        wires = [alice.protect(body, bob.principal, secret=secret) for body in bodies]
    else:
        wires = alice.protect_batch(bodies, bob.principal, secret=secret)
    return domain, alice, bob, bodies, wires


def damaged(wires):
    """The receive stream: every wire, then one flipped MAC-covered bit
    and one cut inside the header."""
    return wires + [wires[3][:-1] + bytes([wires[3][-1] ^ 1]), wires[4][:5]]


def line(name, wires, accepted, rejected):
    sha = hashlib.sha256()
    for wire in wires:
        sha.update(len(wire).to_bytes(4, "big") + wire)
    rejected = ",".join(f"{reason}:{rejected[reason]}" for reason in REJECTION_REASONS)
    return (
        f"{name} datagrams={len(wires)} bytes={sum(map(len, wires))} "
        f"sha256={sha.hexdigest()} accepted={accepted} rejected={rejected}"
    )


def digest_line(name: str, vectorize: bool, seed: int = 19) -> str:
    secret = name.startswith("secret")
    _domain, alice, bob, bodies, wires = seeded_run(name, vectorize, seed)
    stream = damaged(wires)
    if name.endswith("single"):
        delivered = []
        for wire in stream:
            try:
                delivered.append(bob.unprotect(wire, alice.principal, secret=secret))
            except FBSError:
                delivered.append(None)
    else:
        delivered = bob.unprotect_batch(stream, alice.principal, secret=secret).bodies
    assert delivered == bodies + [None, None]
    counter = bob.registry.counter
    rejected = {r: counter("datagrams_rejected", reason=r).value for r in REJECTION_REASONS}
    return line(name, wires, counter("datagrams_accepted").value, rejected)


def spec_line(name: str) -> str:
    """The line recomputed by ``tests/spec/fbs_spec.py``: the seeded run
    supplies only each header's sfl and confounder."""
    secret = name.startswith("secret")
    domain, alice, bob, bodies, wires = seeded_run(name)
    a, b = alice.principal, bob.principal
    spec = Domain.enrolled(domain, a, b)
    ours = []
    for body, wire in zip(bodies, wires):
        sfl, confounder = struct.unpack_from(">QI", wire)
        ours.append(spec_send(spec, a.wire_id, b.wire_id, body, sfl, confounder, NOW, secret))
    reasons = [
        spec_receive(spec, a.wire_id, b.wire_id, wire, NOW, secret, [])[1]
        for wire in damaged(ours)
    ]
    rejected = {reason: reasons.count(reason) for reason in REJECTION_REASONS}
    return line(name, ours, reasons.count(None), rejected)


def recorded() -> dict:
    lines = [
        line
        for line in DIGESTS.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return {line.split()[0]: line for line in lines}


@pytest.mark.parametrize("vectorize", [False, True], ids=["scalar", "lanes"])
@pytest.mark.parametrize("name", VARIANTS)
def test_variant_replays_the_recorded_digest(name, vectorize):
    assert digest_line(name, vectorize) == recorded()[name]


@pytest.mark.parametrize("name", VARIANTS)
def test_only_the_digest_depends_on_the_keys(name):
    # What a re-record after a keying change may move: another domain
    # seed is another CA and other private values, so MAC and ciphertext
    # bytes differ -- and no length, count or rejection reason does.
    ours, other = (digest_line(name, True, seed).split() for seed in (19, 20))
    assert len(ours) == len(other)
    assert [a.split("=")[0] for a, b in zip(ours, other) if a != b] == ["sha256"]


@pytest.mark.parametrize("name", VARIANTS)
def test_the_specification_derives_the_recorded_digest(name):
    assert spec_line(name) == recorded()[name]


def test_every_variant_is_recorded_once():
    assert tuple(recorded()) == VARIANTS


def test_wire_does_not_depend_on_the_batch_cut():
    lines = recorded()
    for secrecy in ("mac", "secret"):
        single = lines[f"{secrecy}-single"].split(" ", 1)[1]
        assert single == lines[f"{secrecy}-batch"].split(" ", 1)[1]


if __name__ == "__main__":
    for variant in VARIANTS:
        print(digest_line(variant, True))
