"""FlowCryptoState: the per-flow crypto cache level (Figure 6 fast path).

Two contracts (that flushing the state never breaks delivery is the
soft-state machine's, ``tests/property/test_soft_state_machine.py``):

* **Equivalence** -- ``FlowCryptoState.mac`` is bit-identical to the
  generic ``suite.mac.func(mac_key, data)`` construction for every
  :class:`MacAlgorithm`, and its lazy cipher is the same DES instance
  the generic path would build.
* **Zero-work cache hits** -- once the TFKC/RFKC are warm, a protected
  datagram performs zero flow-key derivations, zero crypto-state builds
  and zero DES key-schedule constructions (Section 5.3: "only MAC
  computation and encryption").
"""

import pytest

from repro.core.config import AlgorithmSuite, FBSConfig, MacAlgorithm
from repro.core.deploy import FBSDomain
from repro.core.keying import FlowCryptoState, KeyDerivation, Principal
from repro.crypto.des import DES
from repro.obs import NULL_TRACER, MetricsRegistry


class Clock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


def make_pair(config=None, seed=0):
    clock = Clock()
    domain = FBSDomain(seed=seed, config=config or FBSConfig())
    alice = domain.make_endpoint(Principal.from_name("alice"), now=clock)
    bob = domain.make_endpoint(Principal.from_name("bob"), now=clock)
    return alice, bob, clock


def suite_for(alg):
    """A valid suite for the algorithm (DES-CBC-MAC tags are 64-bit)."""
    if alg is MacAlgorithm.DES_MAC:
        return AlgorithmSuite(mac=alg, mac_bits=64)
    return AlgorithmSuite(mac=alg)


def keying_work(alice, bob):
    """(flow-key derivations, state builds, DES schedule builds)."""
    return (
        alice.registry.counter("flow_key_derivations", side="send").value
        + bob.registry.counter("flow_key_derivations", side="receive").value,
        alice.registry.counter("crypto_state_builds").value
        + bob.registry.counter("crypto_state_builds").value,
        DES.schedule_builds,
    )


class TestMacEquivalence:
    @pytest.mark.parametrize("alg", list(MacAlgorithm))
    def test_state_mac_matches_generic_construction(self, alg):
        suite = suite_for(alg)
        flow_key = bytes(range(16))
        state = FlowCryptoState(flow_key, suite)
        for data in (b"", b"x", b"datagram body " * 37):
            generic = suite.mac.func(KeyDerivation.mac_key(flow_key), data)
            assert state.mac(data) == generic[: suite.mac_bytes]

    @pytest.mark.parametrize("alg", list(MacAlgorithm))
    def test_state_mac_is_reusable(self, alg):
        # The precomputed prefix/pad states must not be consumed by use.
        state = FlowCryptoState(b"\x5a" * 16, suite_for(alg))
        first = state.mac(b"payload one")
        state.mac(b"payload two")
        assert state.mac(b"payload one") == first

    def test_cipher_is_lazy_and_cached(self):
        flow_key = bytes(range(16, 32))
        before = DES.schedule_builds
        state = FlowCryptoState(flow_key, AlgorithmSuite())
        assert DES.schedule_builds == before  # nothing built yet
        cipher = state.cipher
        assert DES.schedule_builds == before + 1
        assert state.cipher is cipher  # second access: same instance
        assert DES.schedule_builds == before + 1
        expected = DES(KeyDerivation.encryption_key(flow_key))
        assert cipher.encrypt_block(bytes(8)) == expected.encrypt_block(bytes(8))


class TestCacheHitFastPath:
    @pytest.mark.parametrize("secret", [True, False])
    def test_warm_datagram_does_zero_keying_work(self, secret):
        alice, bob, _ = make_pair()
        body = b"\xa5" * 200
        for _ in range(3):  # warm FST, TFKC, RFKC, lazy cipher
            wire = alice.protect(body, bob.principal, secret=secret)
            bob.unprotect(wire, alice.principal, secret=secret)
        before = keying_work(alice, bob)
        wire = alice.protect(body, bob.principal, secret=secret)
        assert bob.unprotect(wire, alice.principal, secret=secret) == body
        assert keying_work(alice, bob) == before

    def test_first_datagram_builds_state_once_per_side(self):
        alice, bob, _ = make_pair()
        wire = alice.protect(b"first", bob.principal, secret=True)
        bob.unprotect(wire, alice.principal, secret=True)
        assert alice.registry.counter("crypto_state_builds").value == 1
        assert bob.registry.counter("crypto_state_builds").value == 1


class TestNullTracerFastPath:
    """Tracing off (the default) leaves the warm path untouched."""

    def test_default_tracer_is_the_shared_null_tracer(self):
        alice, bob, _ = make_pair()
        assert alice.tracer is NULL_TRACER
        assert bob.tracer is NULL_TRACER
        assert not alice.tracer.enabled

    def test_warm_datagram_touches_only_datapath_counters(self):
        clock = Clock()
        domain = FBSDomain(seed=0)
        alice = domain.make_endpoint(
            Principal.from_name("alice"), now=clock, registry=MetricsRegistry()
        )
        bob = domain.make_endpoint(
            Principal.from_name("bob"), now=clock, registry=MetricsRegistry()
        )
        body = b"\x5a" * 150
        for _ in range(3):  # warm every cache level and the lazy cipher
            wire = alice.protect(body, bob.principal, secret=True)
            bob.unprotect(wire, alice.principal, secret=True)

        before_a = dict(alice.registry.snapshot()["counters"])
        before_b = dict(bob.registry.snapshot()["counters"])
        wire = alice.protect(body, bob.principal, secret=True)
        assert bob.unprotect(wire, alice.principal, secret=True) == body
        after_a = alice.registry.snapshot()["counters"]
        after_b = bob.registry.snapshot()["counters"]

        def diff(before, after):
            return {
                key: value - before.get(key, 0)
                for key, value in after.items()
                if value != before.get(key, 0)
            }

        # Sender: one datagram out through a warm TFKC; no derivations,
        # no builds, no misses -- the Section 5.3 fast path, verbatim.
        # bytes_protected counts what hits the wire (the padded
        # ciphertext), so measure it off the emitted datagram.
        assert diff(before_a, after_a) == {
            "datagrams_sent": 1,
            "bytes_protected": len(wire) - alice.header_size,
            "encryptions": 1,
            "cache_hits{cache=TFKC}": 1,
        }
        # Receiver: the mirror image through the RFKC.
        assert diff(before_b, after_b) == {
            "datagrams_received": 1,
            "datagrams_accepted": 1,
            "bytes_accepted": len(body),
            "decryptions": 1,
            "cache_hits{cache=RFKC}": 1,
        }
