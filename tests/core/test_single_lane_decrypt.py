"""Scalar ``unprotect`` routed through the lane kernel vs not.

A secret CBC body of at least ``SINGLE_LANE_MIN_BLOCKS`` blocks is
decrypted as one lane of ``cbc_decrypt_many``; shorter ones, and every
body when ``vectorize`` is off, take the scalar block loop.  These tests
spy on the kernel to pin where the route starts; that it is invisible
(same bodies, same ``"mac"`` rejection for every undecryptable body) is
checked against the specification by
``tests/property/test_soft_state_machine.py``.
"""

import pytest

from repro.core import protocol
from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.crypto import vector
from repro.obs import RingBufferSink, Tracer

pytestmark = pytest.mark.skipif(
    not vector.HAVE_NUMPY, reason="the route needs numpy"
)

CROSSOVER = 8 * vector.SINGLE_LANE_MIN_BLOCKS
# Padded length is the body rounded up past the next multiple of 8, so
# these straddle the crossover from one block below to well above.
SIZES = sorted(
    {0, 1, 8, CROSSOVER - 17, CROSSOVER - 9, CROSSOVER - 8, CROSSOVER - 1,
     CROSSOVER, CROSSOVER + 7, 512, 1500}
)  # fmt: skip


def make_world(vectorize):
    sink = RingBufferSink(capacity=4096)
    domain = FBSDomain(seed=23, config=FBSConfig(vectorize=vectorize))
    alice = domain.make_endpoint(Principal.from_name("alice"))
    bob = domain.make_endpoint(
        Principal.from_name("bob"), tracer=Tracer(sink, now=lambda: 0.0)
    )
    return alice, bob, sink


@pytest.fixture
def lane_calls(monkeypatch):
    """Count the bodies handed to the lane kernel by the protocol layer."""
    calls = []
    real = vector.cbc_decrypt_many

    def counted(ciphers, ivs, bodies):
        calls.append([len(body) for body in bodies])
        return real(ciphers, ivs, bodies)

    monkeypatch.setattr(protocol._vector, "cbc_decrypt_many", counted)
    return calls


def test_route_engages_exactly_from_the_crossover(lane_calls):
    alice, bob, _ = make_world(vectorize=True)
    for size in SIZES:
        body = bytes([size & 0xFF]) * size
        wire = alice.protect(body, bob.principal, secret=True)
        del lane_calls[:]
        assert bob.unprotect(wire, alice.principal, secret=True) == body
        padded = len(wire) - bob.header_size
        assert lane_calls == ([[padded]] if padded >= CROSSOVER else [])


def test_batch_of_one_takes_the_same_route(lane_calls):
    a_v, b_v, _ = make_world(vectorize=True)
    a_s, b_s, _ = make_world(vectorize=False)
    body = b"\x5a" * 512
    wires = [a_v.protect(body, b_v.principal, secret=True)]
    assert wires == [a_s.protect(body, b_s.principal, secret=True)]
    result_v = b_v.unprotect_batch(wires, a_v.principal, secret=True)
    result_s = b_s.unprotect_batch(wires, a_s.principal, secret=True)
    assert result_v.bodies == result_s.bodies == [body]
    assert lane_calls == [[520]]
    bad = [wires[0][:-1] + bytes([wires[0][-1] ^ 1])]
    result_v = b_v.unprotect_batch(bad, a_v.principal, secret=True)
    result_s = b_s.unprotect_batch(bad, a_s.principal, secret=True)
    assert result_v.reasons == result_s.reasons == ["mac"]
    assert b_v.registry.snapshot() == b_s.registry.snapshot()
