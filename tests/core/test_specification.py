"""Every outcome FBSReceive names, reached on purpose and judged by the specification.

The soft-state machine (``tests/property/test_soft_state_machine.py``)
draws its worlds at random, and a tier-1 run of a few examples need not
reach every branch of ``spec_receive``.  Here each outcome is built by
hand -- acceptance with and without secrecy, and each rejection reason
in the order Figures 5-6 check them: a wire cut inside its header, a
timestamp past freshness, a sender nobody enrolled, a flipped MAC-covered
bit, a ciphertext off the block boundary, a broken pad, and a replay
caught by the guard.  Each stream is received twice, by ``unprotect``
one datagram at a time and by one ``unprotect_batch``, on fresh worlds
from the same seed; both must return ``spec_receive``'s body or reason
for every datagram and keep the receive contract.
"""

import struct

import pytest

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.obs import RingBufferSink
from tests.property.test_receive_contract import Clock
from tests.property.test_soft_state_machine import received
from tests.spec.fbs_spec import BLOCK, Domain, spec_receive, spec_send

#: Three DES blocks once padded: the pad sits in the last one.
BODY = bytes(range(20))


def flip(wire, at):
    return wire[:at] + bytes([wire[at] ^ 1]) + wire[at + 1 :]


#: name -> (secret, replay guard, stream from the sent wire, clock step
#: before delivery, sender unenrolled, the last datagram's outcome).
CASES = {
    "accepted-plain": (False, 0, lambda w: [w], 0.0, False, None),
    "accepted-secret": (True, 0, lambda w: [w], 0.0, False, None),
    "header": (False, 0, lambda w: [w[:20]], 0.0, False, "header"),
    "stale_timestamp": (False, 0, lambda w: [w], 181.0, False, "stale_timestamp"),
    "keying": (False, 0, lambda w: [w], 0.0, True, "keying"),
    "mac-flipped-body": (False, 0, lambda w: [flip(w, len(w) - 1)], 0.0, False, "mac"),
    "mac-ragged-ciphertext": (True, 0, lambda w: [w[:-1]], 0.0, False, "mac"),
    # The last byte of the next-to-last block chains into the pad byte.
    "mac-broken-pad": (True, 0, lambda w: [flip(w, len(w) - BLOCK - 1)], 0.0, False, "mac"),
    "duplicate": (False, 4, lambda w: [w, w], 0.0, False, "duplicate"),
}


def delivered(case, cut):
    """``(specification's outcomes, endpoint's outcomes)`` of one case."""
    secret, guard, stream, step, stranger, _ = CASES[case]
    clock = Clock()
    domain = FBSDomain(seed=31, config=FBSConfig(replay_guard_size=guard))
    alice = domain.make_endpoint(Principal.from_name("alice"), now=clock)
    ring = RingBufferSink()
    bob = domain.make_endpoint(Principal.from_name("bob"), now=clock, tracer=ring)
    spec = Domain.enrolled(domain, alice.principal, bob.principal)
    wire = alice.protect(BODY, bob.principal, secret=secret)
    sfl, confounder = struct.unpack_from(">QI", wire)
    assert wire == spec_send(
        spec, alice.principal.wire_id, bob.principal.wire_id, BODY,
        sfl, confounder, clock.now, secret,
    )  # fmt: skip
    clock.now += step
    source = Principal.from_name("eve") if stranger else alice.principal
    datagrams, seen, expected, got = stream(wire), [], [], []
    batches = [[d] for d in datagrams] if cut == "single" else [datagrams]
    for batch in batches:
        result, problems = received(bob, ring, batch, source, secret)
        assert problems == []
        got += zip(result.bodies, result.reasons)
        expected += [
            spec_receive(
                spec, source.wire_id, bob.principal.wire_id, d, clock.now, secret, seen
            )
            for d in batch
        ]
    return expected, got


@pytest.mark.parametrize("case", CASES)
def test_each_outcome_agrees_with_the_specification(case):
    reason = CASES[case][-1]
    for cut in ("single", "batch"):
        expected, got = delivered(case, cut)
        assert got == expected, cut
        assert expected[-1] == ((BODY, None) if reason is None else (None, reason)), cut
