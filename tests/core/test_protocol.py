"""Abstract FBS endpoint tests: Figure 4 semantics over raw bytes."""

import pytest

from repro.core.config import AlgorithmSuite, CipherMode, FBSConfig, MacAlgorithm
from repro.core.deploy import FBSDomain
from repro.core.errors import MacMismatchError, StaleTimestampError
from repro.core.keying import Principal


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


class TestBasicExchange:
    def test_mac_only_roundtrip(self):
        alice, bob, _ = make_pair()
        wire = alice.protect(b"hello flows", bob.principal, secret=False)
        assert bob.unprotect(wire, alice.principal, secret=False) == b"hello flows"

    def test_encrypted_roundtrip(self):
        alice, bob, _ = make_pair()
        wire = alice.protect(b"secret payload", bob.principal, secret=True)
        assert bob.unprotect(wire, alice.principal, secret=True) == b"secret payload"

    def test_ciphertext_hides_plaintext(self):
        alice, bob, _ = make_pair()
        wire = alice.protect(b"CONFIDENTIAL-DATA", bob.principal, secret=True)
        assert b"CONFIDENTIAL-DATA" not in wire

    def test_mac_only_plaintext_visible(self):
        alice, bob, _ = make_pair()
        wire = alice.protect(b"public data", bob.principal, secret=False)
        assert b"public data" in wire  # integrity without confidentiality

    def test_empty_body(self):
        alice, bob, _ = make_pair()
        wire = alice.protect(b"", bob.principal, secret=True)
        assert bob.unprotect(wire, alice.principal, secret=True) == b""

    def test_large_body(self):
        alice, bob, _ = make_pair()
        body = bytes(range(256)) * 64
        wire = alice.protect(body, bob.principal, secret=True)
        assert bob.unprotect(wire, alice.principal, secret=True) == body

    def test_header_size_accounts_for_wire_overhead(self):
        alice, bob, _ = make_pair()
        wire = alice.protect(b"x" * 100, bob.principal, secret=False)
        assert len(wire) == alice.header_size + 100


class TestZeroMessageProperty:
    def test_no_prior_communication_needed(self):
        # The very first datagram decrypts: zero-message keying.
        alice, bob, _ = make_pair()
        wire = alice.protect(b"first contact", bob.principal, secret=True)
        assert bob.unprotect(wire, alice.principal, secret=True) == b"first contact"

    def test_receiver_demultiplexes_passively(self):
        # Different flows arrive unannounced and each decrypts.
        from repro.core.fam import DatagramAttributes

        alice, bob, _ = make_pair()
        wires = []
        for i in range(3):
            attrs = DatagramAttributes(
                destination_id=bob.principal.wire_id, five_tuple=None, size=10
            )
            attrs.destination_id = bob.principal.wire_id
            wires.append(
                alice.protect(
                    f"flow {i}".encode(), bob.principal, attributes=attrs, secret=True
                )
            )
        for i, wire in enumerate(wires):
            assert bob.unprotect(wire, alice.principal, secret=True) == f"flow {i}".encode()


class TestTampering:
    def test_body_tamper_detected(self):
        alice, bob, _ = make_pair()
        wire = bytearray(alice.protect(b"hands off", bob.principal, secret=False))
        wire[-1] ^= 0x01
        with pytest.raises(MacMismatchError):
            bob.unprotect(bytes(wire), alice.principal, secret=False)

    def test_confounder_tamper_detected(self):
        alice, bob, _ = make_pair()
        wire = bytearray(alice.protect(b"payload", bob.principal, secret=False))
        wire[9] ^= 0xFF  # inside the confounder field
        with pytest.raises(MacMismatchError):
            bob.unprotect(bytes(wire), alice.principal, secret=False)

    def test_timestamp_tamper_detected(self):
        alice, bob, clock = make_pair()
        wire = bytearray(alice.protect(b"payload", bob.principal, secret=False))
        wire[-1] ^= 0x01  # low bit of the timestamp: still fresh, MAC must catch it
        with pytest.raises(MacMismatchError):
            bob.unprotect(bytes(wire), alice.principal, secret=False)

    def test_sfl_tamper_detected(self):
        alice, bob, _ = make_pair()
        wire = bytearray(alice.protect(b"payload", bob.principal, secret=False))
        wire[7] ^= 0x01  # low byte of the sfl: wrong flow key -> bad MAC
        with pytest.raises(MacMismatchError):
            bob.unprotect(bytes(wire), alice.principal, secret=False)

    def test_wrong_claimed_source_detected(self):
        # Flow authentication: the datagram must come from the claimed
        # source (the flow key binds S and D).
        alice, bob, _ = make_pair()
        carol = Principal.from_name("carol")
        wire = alice.protect(b"payload", bob.principal, secret=False)
        with pytest.raises(Exception):
            bob.unprotect(wire, carol, secret=False)

    def test_metrics_track_failures(self):
        alice, bob, _ = make_pair()
        wire = bytearray(alice.protect(b"x", bob.principal, secret=False))
        wire[-6] ^= 0x01  # last MAC byte
        with pytest.raises(MacMismatchError):
            bob.unprotect(bytes(wire), alice.principal, secret=False)
        assert bob.registry.counter("datagrams_rejected", reason="mac").value == 1
        assert bob.registry.counter("datagrams_accepted").value == 0


class TestFreshness:
    def test_stale_datagram_rejected(self):
        alice, bob, clock = make_pair()
        wire = alice.protect(b"old news", bob.principal)
        clock.now = 10_000.0
        with pytest.raises(StaleTimestampError):
            bob.unprotect(wire, alice.principal)
        assert bob.registry.counter("datagrams_rejected", reason="stale_timestamp").value == 1

    def test_within_window_accepted(self):
        alice, bob, clock = make_pair()
        wire = alice.protect(b"recent", bob.principal)
        clock.now = 60.0  # within the default 120 s half-window
        assert bob.unprotect(wire, alice.principal) == b"recent"


class TestAlgorithmSuites:
    @pytest.mark.parametrize(
        "suite",
        [
            AlgorithmSuite(mac=MacAlgorithm.HMAC_MD5),
            AlgorithmSuite(mac=MacAlgorithm.KEYED_SHS, mac_bits=160),
            AlgorithmSuite(mac=MacAlgorithm.HMAC_SHS, mac_bits=160),
            AlgorithmSuite(mac_bits=64),
            AlgorithmSuite(cipher_mode=CipherMode.CFB),
            AlgorithmSuite(cipher_mode=CipherMode.OFB),
            AlgorithmSuite(cipher_mode=CipherMode.ECB),
        ],
    )
    def test_suite_roundtrip(self, suite):
        config = FBSConfig(suite=suite)
        alice, bob, _ = make_pair(config=config)
        wire = alice.protect(b"suite test payload", bob.principal, secret=True)
        assert bob.unprotect(wire, alice.principal, secret=True) == b"suite test payload"

    def test_algorithm_id_carried(self):
        config = FBSConfig(carry_algorithm_id=True)
        alice, bob, _ = make_pair(config=config)
        wire = alice.protect(b"with alg id", bob.principal)
        assert len(wire) == 34 + len(b"with alg id")
        assert bob.unprotect(wire, alice.principal) == b"with alg id"

    def test_suites_do_not_interoperate(self):
        alice, _, _ = make_pair(config=FBSConfig())
        _, bob2, _ = make_pair(
            config=FBSConfig(suite=AlgorithmSuite(mac=MacAlgorithm.HMAC_MD5)), seed=1
        )
        # Different domains AND different suites: rejection guaranteed.
        wire = alice.protect(b"x", bob2.principal)
        with pytest.raises(Exception):
            bob2.unprotect(wire, alice.principal)


class TestFlowSeparation:
    def test_unidirectional_flows(self):
        alice, bob, _ = make_pair()
        to_bob = alice.protect(b"a->b", bob.principal)
        to_alice = bob.protect(b"b->a", alice.principal)
        assert bob.unprotect(to_bob, alice.principal) == b"a->b"
        assert alice.unprotect(to_alice, bob.principal) == b"b->a"

    def test_confounders_vary_per_datagram(self):
        from repro.core.header import FBSHeader

        alice, bob, _ = make_pair()
        suite = alice.config.suite
        headers = [
            FBSHeader.decode(alice.protect(b"same body", bob.principal), suite)
            for _ in range(5)
        ]
        assert len({h.confounder for h in headers}) == 5

    def test_identical_bodies_distinct_ciphertexts(self):
        alice, bob, _ = make_pair()
        a = alice.protect(b"identical datagram", bob.principal, secret=True)
        b = alice.protect(b"identical datagram", bob.principal, secret=True)
        assert a[alice.header_size :] != b[alice.header_size :]


class TestDesMacSuite:
    def test_footnote12_des_for_everything(self):
        # DES for both encryption and MAC (footnote 12).
        suite = AlgorithmSuite(mac=MacAlgorithm.DES_MAC, mac_bits=64)
        config = FBSConfig(suite=suite)
        alice, bob, _ = make_pair(config=config, seed=9)
        wire = alice.protect(b"all-DES datagram", bob.principal, secret=True)
        # Header shrinks: 8 + 4 + 8 + 4 = 24 bytes.
        assert alice.header_size == 24
        assert bob.unprotect(wire, alice.principal, secret=True) == b"all-DES datagram"

    def test_des_mac_tamper_detected(self):
        suite = AlgorithmSuite(mac=MacAlgorithm.DES_MAC, mac_bits=64)
        config = FBSConfig(suite=suite)
        alice, bob, _ = make_pair(config=config, seed=10)
        wire = bytearray(alice.protect(b"payload", bob.principal))
        wire[-1] ^= 0x20
        with pytest.raises(Exception):
            bob.unprotect(bytes(wire), alice.principal)
