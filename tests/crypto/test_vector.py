"""Vector lane kernels: bit-identity against the scalar reference.

The contract of :mod:`repro.crypto.vector` is that every kernel is a
pure speed transform: for any batch, the per-lane outputs equal the
scalar kernels byte for byte.  These are the deterministic edge-case
tests; the random-shape sweep lives in
``tests/property/test_vector_props.py``.
"""

import hashlib
import random

import pytest

from repro.crypto import modes
from repro.crypto.des import DES
from repro.crypto.mac import keyed_md5
from repro.crypto.vector import cbc_decrypt_many, cbc_encrypt_many, keyed_md5_many

# Every MD5 padding boundary: around one block (55/56/57), around the
# 64-byte mark, and around two blocks, plus empty and long.
MD5_EDGE_SIZES = [0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 121, 128, 1000]

# CBC edge sizes: empty (pads to one block), sub-block, exact blocks
# (always-pad appends a full block), and straddles.
CBC_EDGE_SIZES = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 100, 255, 256, 1000]


def rng():
    return random.Random(0xFB5)


def md5_lanes(messages):
    """Plain MD5 through the lanes: keyed MD5 under an empty key."""
    return keyed_md5_many([b""] * len(messages), messages)


class TestVectorMd5:
    def test_edge_sizes_match_hashlib(self):
        r = rng()
        messages = [r.randbytes(size) for size in MD5_EDGE_SIZES]
        expected = [hashlib.md5(m).digest() for m in messages]
        assert md5_lanes(messages) == expected

    def test_keyed_md5_matches_scalar(self):
        r = rng()
        messages = [r.randbytes(size) for size in MD5_EDGE_SIZES]
        keys = [r.randbytes(16) for _ in messages]
        expected = [keyed_md5(k, m) for k, m in zip(keys, messages)]
        assert keyed_md5_many(keys, messages) == expected

    def test_single_lane_batch(self):
        assert md5_lanes([b"abc"]) == [hashlib.md5(b"abc").digest()]

    def test_empty_batch(self):
        assert md5_lanes([]) == []
        assert keyed_md5_many([], []) == []

    def test_mismatched_keys_raise(self):
        with pytest.raises(ValueError):
            keyed_md5_many([b"k"], [b"a", b"b"])

    def test_duplicate_lanes_get_identical_digests(self):
        digests = md5_lanes([b"same"] * 5 + [b"other"])
        assert len(set(digests[:5])) == 1
        assert digests[5] != digests[0]


class TestVectorDesCbc:
    def _lanes(self, sizes, n_keys=4):
        r = rng()
        ciphers = [DES(r.randbytes(8)) for _ in range(n_keys)]
        lane_ciphers = [ciphers[i % n_keys] for i in range(len(sizes))]
        ivs = [r.randbytes(8) for _ in sizes]
        plains = [r.randbytes(size) for size in sizes]
        return lane_ciphers, ivs, plains

    def test_encrypt_matches_scalar_mixed_sizes_and_keys(self):
        lane_ciphers, ivs, plains = self._lanes(CBC_EDGE_SIZES)
        expected = [
            modes.encrypt(modes.CipherMode.CBC, c, iv, p)
            for c, iv, p in zip(lane_ciphers, ivs, plains)
        ]
        assert cbc_encrypt_many(lane_ciphers, ivs, plains) == expected

    def test_decrypt_roundtrip(self):
        lane_ciphers, ivs, plains = self._lanes(CBC_EDGE_SIZES)
        wires = cbc_encrypt_many(lane_ciphers, ivs, plains)
        assert cbc_decrypt_many(lane_ciphers, ivs, wires) == plains

    def test_single_key_batch_broadcasts(self):
        lane_ciphers, ivs, plains = self._lanes(CBC_EDGE_SIZES, n_keys=1)
        expected = [
            modes.encrypt(modes.CipherMode.CBC, c, iv, p)
            for c, iv, p in zip(lane_ciphers, ivs, plains)
        ]
        assert cbc_encrypt_many(lane_ciphers, ivs, plains) == expected

    def test_corrupt_lanes_mirror_scalar_value_errors(self):
        lane_ciphers, ivs, plains = self._lanes(CBC_EDGE_SIZES)
        wires = cbc_encrypt_many(lane_ciphers, ivs, plains)
        # Last-byte flip (usually garbles padding), a truncation to a
        # non-block length, and an empty lane.
        wires[2] = wires[2][:-1] + bytes([wires[2][-1] ^ 1])
        wires[4] = wires[4][:-3]
        wires[6] = b""
        got = cbc_decrypt_many(lane_ciphers, ivs, wires)
        for i, wire in enumerate(wires):
            try:
                expected = modes.decrypt(
                    modes.CipherMode.CBC, lane_ciphers[i], ivs[i], wire
                )
            except ValueError:
                expected = None
            assert got[i] == expected

    def test_empty_batch(self):
        assert cbc_encrypt_many([], [], []) == []
        assert cbc_decrypt_many([], [], []) == []

    def test_mismatched_lanes_raise(self):
        cipher = DES(b"01234567")
        with pytest.raises(ValueError):
            cbc_encrypt_many([cipher], [b"\0" * 8], [b"a", b"b"])
        with pytest.raises(ValueError):
            cbc_decrypt_many([cipher], [], [b"x" * 8])


class TestOneRoundKeyPacking:
    """The lane key words are the scalar schedule, both directions."""

    def test_lane_key_words_are_the_scalar_schedule_cached_per_instance(self):
        from repro.crypto.vector.des import _lane_words

        cipher = DES(b"\x01\x23\x45\x67\x89\xab\xcd\xef")
        for direction, schedule in enumerate((cipher.subkeys, cipher.subkeys_rev)):
            words = _lane_words([cipher], decrypt=bool(direction))[:, 0]
            keys = [ka | kb << 32 for ka, kb in schedule]
            # K_0 enters with the state, K_15 leaves with it.
            assert words[0] == keys[0]
            assert words[17] == keys[15]
        cached = cipher._vector
        _lane_words([cipher], decrypt=False)
        assert cipher._vector is cached
