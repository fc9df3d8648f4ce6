"""Bit-identity gate for FBS's own wire.

The gate every simplicity PR cites as "hold wire bytes", written down:
one seeded endpoint pair, a fixed clock and six bodies of fixed sizes,
MAC-only and secret, sent one ``protect`` at a time (n=1, the scalar
kernels) and as one ``protect_batch`` (the MAC and decrypt lanes; six
bodies are below the CBC-encrypt lane crossover).  Each line of
``wire_digests.txt`` is the SHA-256 of what went on the wire plus what
the receiver made of it, two damaged copies included.  Both kernel sets
must replay every line -- so must an interpreter without numpy, where
``vectorize=True`` stands down to the scalar kernels -- and the two
lines of a secrecy mode are equal because wire bytes do not depend on
how a stream is cut into batches.  (The Section 2 baselines' wire is
pinned the same way in ``tests/baselines/wire_digests.txt``.)  After a
deliberate wire change ``PYTHONPATH=src python
tests/core/test_wire_digests.py`` prints the new lines.
"""

import hashlib
from pathlib import Path

import pytest

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.errors import FBSError
from repro.core.keying import Principal
from repro.obs.events import REJECTION_REASONS

DIGESTS = Path(__file__).with_name("wire_digests.txt")
VARIANTS = ("mac-single", "mac-batch", "secret-single", "secret-batch")
#: Empty, sub-block, one block, a 64 B gateway body, off the block
#: boundary, and past the single-lane crossover.
SIZES = (0, 1, 8, 64, 513, 1500)
NOW = 86_400.5


def digest_line(name: str, vectorize: bool, seed: int = 19) -> str:
    secrecy, cut = name.split("-")
    secret = secrecy == "secret"
    domain = FBSDomain(seed=seed, config=FBSConfig(vectorize=vectorize))
    alice = domain.make_endpoint(Principal.from_name("alice"), now=lambda: NOW)
    bob = domain.make_endpoint(Principal.from_name("bob"), now=lambda: NOW)
    bodies = [bytes((i + j) % 251 for j in range(size)) for i, size in enumerate(SIZES)]

    if cut == "single":
        wires = [alice.protect(body, bob.principal, secret=secret) for body in bodies]
    else:
        wires = alice.protect_batch(bodies, bob.principal, secret=secret)
    # One flipped MAC-covered bit and one cut inside the header.
    stream = wires + [wires[3][:-1] + bytes([wires[3][-1] ^ 1]), wires[4][:5]]
    if cut == "single":
        delivered = []
        for wire in stream:
            try:
                delivered.append(bob.unprotect(wire, alice.principal, secret=secret))
            except FBSError:
                delivered.append(None)
    else:
        delivered = bob.unprotect_batch(stream, alice.principal, secret=secret).bodies
    assert delivered == bodies + [None, None]

    sha = hashlib.sha256()
    for wire in wires:
        sha.update(len(wire).to_bytes(4, "big") + wire)
    counter = bob.registry.counter
    rejected = ",".join(
        f"{reason}:{counter('datagrams_rejected', reason=reason).value}"
        for reason in REJECTION_REASONS
    )
    return (
        f"{name} datagrams={len(wires)} bytes={sum(map(len, wires))} "
        f"sha256={sha.hexdigest()} "
        f"accepted={counter('datagrams_accepted').value} rejected={rejected}"
    )


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
