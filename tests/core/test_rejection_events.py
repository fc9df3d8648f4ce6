"""Every receive-path failure emits exactly one ``DatagramRejected``.

The five rejection reasons are mutually exclusive (one probe, one
event, one reason) and the trace agrees with the labeled
``datagrams_rejected`` counters -- the contract docs/OBSERVABILITY.md
documents for operators diagnosing drops.
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
)
from repro.core.keying import Principal
from repro.core.replay_guard import DuplicateDatagramError
from repro.obs import (
    REJECTION_REASONS,
    DatagramAccepted,
    DatagramRejected,
    MetricsRegistry,
    RingBufferSink,
    Tracer,
)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def pair():
    """(alice, bob, clock, ring): traced endpoints with a replay guard."""
    clock = Clock()
    config = FBSConfig().with_(replay_guard_size=64)
    domain = FBSDomain(seed=11, config=config)
    ring = RingBufferSink()
    tracer = Tracer(ring, now=clock)
    alice = domain.make_endpoint(
        Principal.from_name("alice"),
        now=clock,
        tracer=tracer,
        registry=MetricsRegistry(),
    )
    bob = domain.make_endpoint(
        Principal.from_name("bob"),
        now=clock,
        tracer=tracer,
        registry=MetricsRegistry(),
    )
    return alice, bob, clock, ring


def rejections(ring):
    return ring.of_type(DatagramRejected)


class TestOneEventPerReason:
    def test_header(self, pair):
        _alice, bob, _clock, ring = pair
        with pytest.raises(HeaderFormatError):
            bob.unprotect(b"\x00\x01", Principal.from_name("alice"))
        events = rejections(ring)
        assert len(events) == 1
        assert events[0].reason == "header"
        assert events[0].sfl == -1  # header never parsed

    def test_stale_timestamp(self, pair):
        alice, bob, clock, ring = pair
        wire = alice.protect(b"late", bob.principal)
        # Minute-resolution stamps err on acceptance: a stamp in minute M
        # covers [M*60, (M+1)*60), so step past window + one full minute.
        clock.now += bob.config.freshness_half_window + 61.0
        with pytest.raises(StaleTimestampError):
            bob.unprotect(wire, alice.principal)
        events = rejections(ring)
        assert len(events) == 1
        assert events[0].reason == "stale_timestamp"
        assert events[0].sfl != -1

    def test_keying(self, pair):
        alice, bob, _clock, ring = pair
        wire = alice.protect(b"who are you", bob.principal)
        with pytest.raises(FBSError):
            bob.unprotect(wire, Principal.from_name("mallory"))
        events = rejections(ring)
        assert len(events) == 1
        assert events[0].reason == "keying"

    def test_mac(self, pair):
        alice, bob, _clock, ring = pair
        wire = alice.protect(b"integrity", bob.principal)
        tampered = wire[:-1] + bytes([wire[-1] ^ 0x01])
        with pytest.raises(MacMismatchError):
            bob.unprotect(tampered, alice.principal)
        events = rejections(ring)
        assert len(events) == 1
        assert events[0].reason == "mac"

    def test_garbled_ciphertext_is_a_mac_rejection(self, pair):
        alice, bob, _clock, ring = pair
        wire = alice.protect(b"secret" * 20, bob.principal, secret=True)
        tampered = wire[:-1] + bytes([wire[-1] ^ 0x80])
        with pytest.raises(MacMismatchError):
            bob.unprotect(tampered, alice.principal, secret=True)
        assert [e.reason for e in rejections(ring)] == ["mac"]

    def test_duplicate(self, pair):
        alice, bob, _clock, ring = pair
        wire = alice.protect(b"once only", bob.principal)
        assert bob.unprotect(wire, alice.principal) == b"once only"
        with pytest.raises(DuplicateDatagramError):
            bob.unprotect(wire, alice.principal)
        events = rejections(ring)
        assert len(events) == 1
        assert events[0].reason == "duplicate"
        # The first, authentic copy was accepted normally.
        assert len(ring.of_type(DatagramAccepted)) == 1


class TestTraceAndRegistryAgree:
    def test_counters_match_events_reason_by_reason(self, pair):
        alice, bob, clock, ring = pair

        probes = []  # (exception, trigger) per reason, in catalog order
        probes.append((HeaderFormatError, lambda: b"\xff"))

        def stale():
            wire = alice.protect(b"s", bob.principal)
            clock.now += bob.config.freshness_half_window + 61.0
            return wire

        probes.append((StaleTimestampError, stale))
        probes.append(
            (FBSError, lambda: alice.protect(b"k", bob.principal))
        )

        def forged():
            wire = alice.protect(b"m", bob.principal)
            return wire[:-1] + bytes([wire[-1] ^ 0x01])

        probes.append((MacMismatchError, forged))

        def replayed():
            wire = alice.protect(b"d", bob.principal)
            bob.unprotect(wire, alice.principal)
            return wire

        probes.append((DuplicateDatagramError, replayed))

        sources = iter(
            [
                alice.principal,
                alice.principal,
                Principal.from_name("mallory"),
                alice.principal,
                alice.principal,
            ]
        )
        for exc, trigger in probes:
            with pytest.raises(exc):
                bob.unprotect(trigger(), next(sources))

        by_reason = {}
        for event in rejections(ring):
            by_reason[event.reason] = by_reason.get(event.reason, 0) + 1
        assert by_reason == {reason: 1 for reason in REJECTION_REASONS}

        counters = bob.registry.snapshot()["counters"]
        for reason in REJECTION_REASONS:
            assert counters[f"datagrams_rejected{{reason={reason}}}"] == 1
        assert bob.registry.sum_counter("datagrams_rejected") == len(
            REJECTION_REASONS
        )

    def test_every_reason_is_a_receive_error_path(self, pair):
        # The reason vocabulary is closed: nothing in the receive path
        # can reject without going through ``_rejected`` with one of
        # these strings (tests/property/test_receive_contract.py checks
        # it on adversarial bytes: every rejection counted once, under
        # one of these reasons, with the error type the reason names).
        assert set(REJECTION_REASONS) == {
            "header",
            "stale_timestamp",
            "keying",
            "mac",
            "duplicate",
        }
        assert issubclass(DuplicateDatagramError, ReceiveError)
