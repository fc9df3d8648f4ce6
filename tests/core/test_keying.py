"""Zero-message keying tests: K_{S,D} and K_f derivations."""

import random

import pytest

from repro.core.config import AlgorithmSuite, HashAlgorithm
from repro.core.keying import KeyDerivation, Principal
from repro.crypto.dh import DHPrivateKey, WELL_KNOWN_GROUPS
from repro.crypto.md5 import md5
from repro.netsim.addresses import IPAddress

GROUP = WELL_KNOWN_GROUPS["TEST128"]


@pytest.fixture
def kdf():
    return KeyDerivation(AlgorithmSuite())


@pytest.fixture
def principals():
    return Principal.from_name("alice"), Principal.from_name("bob")


class TestPrincipal:
    def test_from_name_wire_id_deterministic(self):
        assert Principal.from_name("x").wire_id == Principal.from_name("x").wire_id

    def test_from_name_length_prefixed(self):
        p = Principal.from_name("ab")
        assert p.wire_id == b"\x00\x02ab"

    def test_from_ip(self):
        p = Principal.from_ip(IPAddress("10.0.0.1"))
        assert p.wire_id == bytes([10, 0, 0, 1])
        assert p.name == "10.0.0.1"

    def test_distinct_names_distinct_ids(self):
        assert Principal.from_name("a").wire_id != Principal.from_name("b").wire_id


class TestMasterKey:
    def test_symmetric(self):
        # K_{S,D} is the raw DH agreement, the same from either end.
        rng = random.Random(0)
        s = DHPrivateKey.generate(GROUP, rng)
        d = DHPrivateKey.generate(GROUP, rng)
        assert s.agree(d.public).reveal() == d.agree(s.public).reveal()


class TestFlowKey:
    def test_definition_matches_paper(self, kdf, principals):
        # K_f = H(sfl | K_{S,D} | S | D), H = MD5 by default.
        s, d = principals
        master = b"\x42" * 16
        expected = md5((77).to_bytes(8, "big") + master + s.wire_id + d.wire_id)
        assert kdf.flow_key(77, master, s, d).reveal() == expected

    def test_different_sfl_different_key(self, kdf, principals):
        s, d = principals
        master = b"\x01" * 16
        assert kdf.flow_key(1, master, s, d).reveal() != kdf.flow_key(2, master, s, d).reveal()

    def test_direction_matters(self, kdf, principals):
        # Flows are unidirectional: K_f(S->D) != K_f(D->S).
        s, d = principals
        master = b"\x01" * 16
        assert kdf.flow_key(1, master, s, d).reveal() != kdf.flow_key(1, master, d, s).reveal()

    def test_master_key_matters(self, kdf, principals):
        s, d = principals
        zeros, ones = (kdf.flow_key(1, m * 16, s, d).reveal() for m in (b"\x00", b"\x01"))
        assert zeros != ones

    def test_one_wayness_flow_key_leaks_nothing_linear(self, kdf, principals):
        # Adjacent sfls produce unrelated keys (hash diffusion).
        s, d = principals
        master = b"\x07" * 16
        k1 = kdf.flow_key(100, master, s, d).reveal()
        k2 = kdf.flow_key(101, master, s, d).reveal()
        diff_bits = sum(bin(a ^ b).count("1") for a, b in zip(k1, k2))
        assert diff_bits > 32

    def test_shs_variant(self, principals):
        kdf = KeyDerivation(AlgorithmSuite(flow_key_hash=HashAlgorithm.SHS))
        s, d = principals
        key = kdf.flow_key(5, b"\x09" * 16, s, d)
        assert len(key) == 20


class TestSubKeys:
    def test_encryption_key_is_leading_8_bytes(self, kdf):
        flow_key = bytes(range(16))
        assert kdf.encryption_key(flow_key).reveal() == bytes(range(8))

    def test_mac_key_is_whole_flow_key(self, kdf):
        flow_key = bytes(range(16))
        assert kdf.mac_key(flow_key).reveal() == flow_key

    def test_encryption_key_needs_8_bytes(self, kdf):
        with pytest.raises(ValueError):
            kdf.encryption_key(b"short")
