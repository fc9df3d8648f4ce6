"""The datapath does not care how a stream is cut into calls.

``protect``/``unprotect`` are ``protect_batch``/``unprotect_batch`` at
n=1, so these tests compare the one pipeline with itself: the same
stream as 64 calls of one datagram and as one call of 64, in twin
worlds (same domain seed) -- byte-identical wire output, identical
registry snapshots, the same bodies and the same mutually exclusive
per-datagram rejection reasons.
"""

import pytest

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.errors import (
    FBSError,
    HeaderFormatError,
    MacMismatchError,
    ReceiveError,
    StaleTimestampError,
    UnknownPrincipalError,
)
from repro.core.header import FBSHeader
from repro.core.keying import Principal
from repro.core.protocol import BatchReceiveResult
from repro.core.replay_guard import DuplicateDatagramError
from repro.crypto import vector


class Clock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


def make_pair(config=None, seed=7):
    clock = Clock()
    domain = FBSDomain(seed=seed, config=config or FBSConfig())
    alice = domain.make_endpoint(Principal.from_name("alice"), now=clock)
    bob = domain.make_endpoint(Principal.from_name("bob"), now=clock)
    return alice, bob, clock


BODIES = [bytes([i]) * (1 + 13 * (i % 12)) for i in range(64)]
STAMPS = [0.5 * i for i in range(64)]


def single_protect(alice, bob, clock, secret):
    wires = []
    for body, stamp in zip(BODIES, STAMPS):
        clock.now = stamp
        wires.append(alice.protect(body, bob.principal, secret=secret))
    return wires


def batch_protect(alice, bob, clock, secret):
    clock.now = STAMPS[-1]
    return alice.protect_batch(
        BODIES, bob.principal, secret=secret, stamps=STAMPS
    )


class TestProtectBatchDifferential:
    @pytest.mark.parametrize("secret", [False, True])
    def test_wire_bytes_and_counters_match_scalar(self, secret):
        a_s, b_s, clk_s = make_pair()
        a_b, b_b, clk_b = make_pair()
        wires_single = single_protect(a_s, b_s, clk_s, secret)
        wires_batch = batch_protect(a_b, b_b, clk_b, secret)
        assert wires_batch == wires_single
        clk_b.now = clk_s.now
        assert a_b.registry.snapshot() == a_s.registry.snapshot()

    def test_empty_batch(self):
        alice, bob, _ = make_pair()
        before = alice.registry.snapshot()
        assert alice.protect_batch([], bob.principal) == []
        assert alice.registry.snapshot() == before


def corrupt(wires):
    """A receive stream exercising every rejection reason but keying."""
    stream = list(wires)
    stream[3] = stream[3][:-1] + bytes([stream[3][-1] ^ 0xFF])  # mac
    stream[5] = stream[5][:4]  # header (truncated)
    stream.append(stream[0])  # duplicate (replay of an accepted one)
    return stream, STAMPS + [STAMPS[-1]]


class TestUnprotectBatchDifferential:
    @pytest.mark.parametrize("secret", [False, True])
    def test_bodies_reasons_and_counters_match_scalar(self, secret):
        config = FBSConfig(replay_guard_size=256)
        a_s, b_s, clk_s = make_pair(config)
        a_b, b_b, clk_b = make_pair(config)
        stream_s, stamps = corrupt(single_protect(a_s, b_s, clk_s, secret))
        stream_b, _ = corrupt(batch_protect(a_b, b_b, clk_b, secret))
        assert stream_b == stream_s

        single_bodies = []
        for wire, stamp in zip(stream_s, stamps):
            clk_s.now = stamp
            try:
                single_bodies.append(
                    b_s.unprotect(wire, a_s.principal, secret=secret)
                )
            except ReceiveError:
                single_bodies.append(None)

        clk_b.now = stamps[-1]
        result = b_b.unprotect_batch(
            stream_b, a_b.principal, secret=secret, stamps=stamps
        )
        assert result.bodies == single_bodies
        assert b_b.registry.snapshot() == b_s.registry.snapshot()
        assert result.rejected == {"mac": 1, "header": 1, "duplicate": 1}
        reasons = [result.reasons[3], result.reasons[5], result.reasons[-1]]
        assert reasons == ["mac", "header", "duplicate"]

    def test_stale_timestamp_reason(self):
        alice, bob, clock = make_pair()
        wire = alice.protect(b"old news", bob.principal)
        result = bob.unprotect_batch(
            [wire], alice.principal, stamps=[clock.now + 500.0]
        )
        assert result.bodies == [None]
        assert result.reasons == ["stale_timestamp"]

    def test_keying_reason_for_unknown_source(self):
        alice, bob, _ = make_pair()
        wire = alice.protect(b"who?", bob.principal)
        stranger = Principal.from_name("mallory")
        result = bob.unprotect_batch([wire], stranger)
        assert result.reasons == ["keying"]

    def test_ledger_after_mixed_batch(self):
        config = FBSConfig(replay_guard_size=256)
        alice, bob, clock = make_pair(config)
        stream, stamps = corrupt(single_protect(alice, bob, clock, False))
        clock.now = stamps[-1]
        bob.unprotect_batch(stream, alice.principal, stamps=stamps)
        counters = bob.registry.snapshot()["counters"]
        rejected = sum(
            v
            for k, v in counters.items()
            if k.startswith("datagrams_rejected")
        )
        assert counters["datagrams_received"] == (
            counters["datagrams_accepted"] + rejected
        )


class TestUnprotectRaisesWhatThePipelineRecorded:
    """``unprotect`` re-raises the typed error recorded for index 0:
    the class and message a caller saw before the paths were merged."""

    def make(self):
        alice, bob, clock = make_pair(FBSConfig(replay_guard_size=16))
        wire = alice.protect(b"p" * 40, bob.principal, secret=True)
        return alice, bob, clock, wire

    def raised(self, bob, wire, source, secret=True):
        with pytest.raises(FBSError) as caught:
            bob.unprotect(wire, source, secret=secret)
        return type(caught.value), str(caught.value)

    def test_header(self):
        alice, bob, _clock, wire = self.make()
        assert self.raised(bob, wire[:7], alice.principal) == (
            HeaderFormatError,
            "datagram too short for FBS header: 7 < 32",
        )

    def test_stale_timestamp(self):
        alice, bob, clock, wire = self.make()
        clock.now = 500.0
        stamp = alice.codec.encode(0.0)
        assert self.raised(bob, wire, alice.principal) == (
            StaleTimestampError,
            f"timestamp {stamp} outside freshness window at 500.0",
        )

    def test_keying_reraises_the_directorys_own_error(self):
        alice, bob, _clock, wire = self.make()

        def unreachable(_peer):
            raise UnknownPrincipalError("directory unreachable")

        bob.mkd.upcall_master_key = unreachable
        assert self.raised(bob, wire, alice.principal) == (
            UnknownPrincipalError,
            "directory unreachable",
        )

    def test_mac_undecryptable_and_mismatch(self):
        alice, bob, _clock, wire = self.make()
        sfl = FBSHeader.decode(wire, bob.config.suite).sfl
        bad_pad = wire[:-1] + bytes([wire[-1] ^ 1])
        assert self.raised(bob, bad_pad, alice.principal) == (
            MacMismatchError,
            f"undecryptable body on datagram in flow {sfl:#x}",
        )
        h = bob.header_size
        bad_mac = wire[:h] + bytes([wire[h] ^ 0x80]) + wire[h + 1 :]
        assert self.raised(bob, bad_mac, alice.principal) == (
            MacMismatchError,
            f"MAC mismatch on datagram in flow {sfl:#x}",
        )

    def test_duplicate(self):
        alice, bob, _clock, wire = self.make()
        header = FBSHeader.decode(wire, bob.config.suite)
        assert bob.unprotect(wire, alice.principal, secret=True) == b"p" * 40
        assert self.raised(bob, wire, alice.principal) == (
            DuplicateDatagramError,
            f"duplicate datagram in flow {header.sfl:#x} "
            f"(confounder {header.confounder:#x})",
        )

    def test_result_carries_header_and_error_per_index(self):
        alice, bob, _clock, wire = self.make()
        result = bob.unprotect_batch(
            [wire[:7], wire, wire], alice.principal, secret=True
        )
        assert result.reasons == ["header", None, "duplicate"]
        assert [type(e) for e in result.errors] == [
            HeaderFormatError,
            type(None),
            DuplicateDatagramError,
        ]
        assert result.headers[0] is None
        assert result.headers[1] == result.headers[2] is not None


class TestBatchValidation:
    def test_parallel_length_mismatches_raise_fbserror(self):
        alice, bob, _ = make_pair()
        with pytest.raises(FBSError):
            alice.protect_batch([b"x"], bob.principal, stamps=[0.0, 1.0])
        with pytest.raises(FBSError):
            alice.protect_batch([b"x"], bob.principal, attributes=[])
        with pytest.raises(FBSError):
            bob.unprotect_batch([b"x"], alice.principal, stamps=[])

    def test_result_properties(self):
        result = BatchReceiveResult(
            bodies=[b"a", None, None], reasons=[None, "mac", "mac"]
        )
        assert result.accepted == 1
        assert result.rejected == {"mac": 2}


@pytest.mark.skipif(vector.HAVE_NUMPY, reason="CI's no-numpy leg owns this")
class TestScalarFallbackWhereNumpyWasNeverInstalled:
    """The real absence, not a stub on ``sys.path`` (that one is
    ``test_batch_vector.py::TestNumpylessFallback``, which needs numpy
    to be there to hide)."""

    def test_secret_batch_round_trips_on_the_scalar_kernels(self):
        domain = FBSDomain(seed=7)
        alice = domain.make_endpoint(Principal.from_name("ci-alice"))
        bob = domain.make_endpoint(Principal.from_name("ci-bob"))
        assert not alice._vector_ok, "vector path must be disabled"
        bodies = [bytes([i]) * (i * 37 % 256) for i in range(16)]
        wires = alice.protect_batch(bodies, bob.principal, secret=True)
        result = bob.unprotect_batch(wires, alice.principal, secret=True)
        assert result.bodies == bodies and result.reasons == [None] * 16
