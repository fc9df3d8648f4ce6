"""Property-based tests on FBS protocol invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.errors import ReceiveError
from repro.core.header import FBSHeader
from repro.core.keying import Principal


@pytest.fixture(scope="module")
def endpoints():
    domain = FBSDomain(seed=1234)
    clock = {"now": 0.0}
    alice = domain.make_endpoint(Principal.from_name("alice"), now=lambda: clock["now"])
    bob = domain.make_endpoint(Principal.from_name("bob"), now=lambda: clock["now"])
    return alice, bob


class TestRoundTripProperties:
    @given(body=st.binary(min_size=0, max_size=2048), secret=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_unprotect_inverts_protect(self, endpoints, body, secret):
        alice, bob = endpoints
        wire = alice.protect(body, bob.principal, secret=secret)
        assert bob.unprotect(wire, alice.principal, secret=secret) == body

    @given(body=st.binary(min_size=0, max_size=512))
    @settings(max_examples=40, deadline=None)
    def test_wire_expansion_bounded(self, endpoints, body):
        alice, bob = endpoints
        wire = alice.protect(body, bob.principal, secret=True)
        # Header + body + worst-case block padding.
        assert len(wire) <= alice.header_size + len(body) + 8
        assert len(wire) >= alice.header_size + len(body)

    @given(body=st.binary(min_size=1, max_size=256))
    @settings(max_examples=40, deadline=None)
    def test_encrypted_wire_never_contains_long_plaintext_runs(self, endpoints, body):
        alice, bob = endpoints
        if len(body) < 16:
            return
        wire = alice.protect(body, bob.principal, secret=True)
        assert body not in wire[alice.header_size :]


class TestTamperProperties:
    @given(
        body=st.binary(min_size=1, max_size=256),
        position=st.integers(min_value=0, max_value=10_000),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_single_byte_corruption_rejected(self, endpoints, body, position, flip):
        alice, bob = endpoints
        wire = bytearray(alice.protect(body, bob.principal, secret=True))
        position %= len(wire)
        # Skip the timestamp's high bytes: corrupting them may produce a
        # *stale* rejection rather than a MAC rejection -- both are
        # rejections, so accept either error class.
        wire[position] ^= flip
        with pytest.raises(ReceiveError):
            bob.unprotect(bytes(wire), alice.principal, secret=True)

    @given(body=st.binary(min_size=0, max_size=128))
    @settings(max_examples=30, deadline=None)
    def test_truncated_wire_rejected(self, endpoints, body):
        alice, bob = endpoints
        wire = alice.protect(body, bob.principal, secret=True)
        with pytest.raises(ReceiveError):
            bob.unprotect(wire[: max(0, alice.header_size - 1)], alice.principal, secret=True)


class TestHeaderProperties:
    @given(
        sfl=st.integers(min_value=0, max_value=2**64 - 1),
        confounder=st.integers(min_value=0, max_value=2**32 - 1),
        timestamp=st.integers(min_value=0, max_value=2**32 - 1),
        mac=st.binary(min_size=16, max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_header_codec_roundtrip(self, sfl, confounder, timestamp, mac):
        from repro.core.config import AlgorithmSuite

        suite = AlgorithmSuite()
        header = FBSHeader(sfl=sfl, confounder=confounder, mac=mac, timestamp=timestamp)
        decoded = FBSHeader.decode(header.encode(suite), suite)
        assert decoded == header


def _world(vectorize):
    config = FBSConfig(vectorize=vectorize, replay_guard_size=64)
    domain = FBSDomain(seed=77, config=config)
    alice = domain.make_endpoint(Principal.from_name("alice"))
    bob = domain.make_endpoint(Principal.from_name("bob"))
    return alice, bob


def _tamper(wires, mutations):
    out = []
    for wire, mutation in zip(wires, mutations):
        if mutation == "flip":
            wire = wire[:-1] + bytes([wire[-1] ^ 0x40])
        elif mutation == "truncate":
            wire = wire[:9]
        elif mutation == "replay" and out:
            wire = out[-1]
        out.append(wire)
    return out


class TestBatchSplitProperty:
    """How a stream is cut into calls is invisible: one pipeline call
    over ``xs`` equals a call over ``xs[:k]`` followed by one over
    ``xs[k:]``, for every k (k=0 and k=n make an empty batch) and both
    kernel sets."""

    @given(
        bodies=st.lists(st.binary(min_size=0, max_size=120), min_size=1, max_size=10),
        mutations=st.lists(
            st.sampled_from(["none", "none", "flip", "truncate", "replay"]),
            min_size=10,
            max_size=10,
        ),
        cut=st.integers(min_value=0, max_value=10),
        secret=st.booleans(),
        vectorize=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_batches_equal_one_batch(
        self, bodies, mutations, cut, secret, vectorize
    ):
        k = min(cut, len(bodies))
        a_one, b_one = _world(vectorize)
        a_two, b_two = _world(vectorize)
        wires = a_one.protect_batch(bodies, b_one.principal, secret=secret)
        assert wires == (
            a_two.protect_batch(bodies[:k], b_two.principal, secret=secret)
            + a_two.protect_batch(bodies[k:], b_two.principal, secret=secret)
        )
        assert a_one.registry.snapshot() == a_two.registry.snapshot()
        stream = _tamper(wires, mutations)
        one = b_one.unprotect_batch(stream, a_one.principal, secret=secret)
        head = b_two.unprotect_batch(stream[:k], a_two.principal, secret=secret)
        tail = b_two.unprotect_batch(stream[k:], a_two.principal, secret=secret)
        assert one.bodies == head.bodies + tail.bodies
        assert one.reasons == head.reasons + tail.reasons
        assert b_one.registry.snapshot() == b_two.registry.snapshot()
