"""Property-based bit-identity for the vector lane kernels.

Random batch shapes and lengths, always compared against the scalar
kernels -- the vector path has no behaviour of its own to test, only
the equivalence.  Includes MAC rejection parity under single-bit flips,
the property the protocol's integrity check rides on.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import modes
from repro.crypto.des import DES
from repro.crypto.mac import constant_time_equal, keyed_md5
from repro.crypto.md5 import md5
from repro.crypto.vector import cbc_decrypt_many, cbc_encrypt_many, keyed_md5_many

# Lane counts hit 1 (degenerate batch), small, and past the typical
# batch width; payloads span several blocks to exercise raggedness.
batches = st.lists(st.binary(min_size=0, max_size=300), min_size=1, max_size=20)
des_keys = st.binary(min_size=8, max_size=8)
lane_ivs = st.binary(min_size=8, max_size=8)


def md5_lanes(messages):
    """Plain MD5 through the lanes: keyed MD5 under an empty key."""
    return keyed_md5_many([b""] * len(messages), messages)


class TestMd5Identity:
    @given(messages=batches)
    @settings(max_examples=50, deadline=None)
    def test_md5_matches_hashlib(self, messages):
        expected = [hashlib.md5(m).digest() for m in messages]
        assert md5_lanes(messages) == expected

    @given(
        messages=batches,
        key_sizes=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_keyed_md5_matches_scalar(self, messages, key_sizes):
        keys = [
            bytes([i]) * key_sizes[i % len(key_sizes)]
            for i in range(len(messages))
        ]
        expected = [keyed_md5(k, m) for k, m in zip(keys, messages)]
        assert keyed_md5_many(keys, messages) == expected


#: MD5 padding boundaries (one block holds 55 bytes of message; 56..63
#: spill the length into a second block) and their two-block twins.
MD5_EDGES = (0, 55, 56, 63, 64, 119, 120)


@st.composite
def md5_batches(draw):
    """Batches of 1-300 lanes: edge and random lengths, all-``0xFF``
    bodies (every addition carries into the guard bits), keys drawn from
    a small pool so lanes repeat them."""
    n = draw(st.integers(min_value=1, max_value=300))
    # One seed draw: per-call draws of up to 300 lanes of bodies
    # overrun hypothesis's entropy budget.
    rng = draw(st.randoms(use_true_random=True))
    pool = [rng.randbytes(rng.choice((0, 8, 16))) for _ in range(rng.randint(1, 4))]
    keys, messages = [], []
    for _ in range(n):
        size = rng.choice(MD5_EDGES) if rng.random() < 0.5 else rng.randint(0, 300)
        fill = rng.random() < 0.25
        messages.append(b"\xff" * size if fill else rng.randbytes(size))
        keys.append(rng.choice(pool))
    return keys, messages


class TestPackedLanes:
    @given(batch=md5_batches())
    @settings(max_examples=25, deadline=None)
    def test_keyed_md5_many_matches_scalar_at_every_width(self, batch):
        keys, messages = batch
        expected = [keyed_md5(k, m) for k, m in zip(keys, messages)]
        assert keyed_md5_many(keys, messages) == expected
        assert md5_lanes(messages) == [md5(m) for m in messages]

    @pytest.mark.parametrize("n", [1, 64, 2_000])
    def test_known_answers_up_to_a_set_up_pool(self, n):
        messages = [bytes([i & 0xFF]) * (i % 130) for i in range(n)]
        assert md5_lanes(messages) == [hashlib.md5(m).digest() for m in messages]


class TestCbcIdentity:
    def _ciphers(self, keys, n):
        pool = [DES(k) for k in keys]
        return [pool[i % len(pool)] for i in range(n)]

    @given(
        plains=batches,
        keys=st.lists(des_keys, min_size=1, max_size=4),
        ivs=st.lists(lane_ivs, min_size=20, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_encrypt_matches_scalar(self, plains, keys, ivs):
        n = len(plains)
        ciphers = self._ciphers(keys, n)
        expected = [
            modes.encrypt(modes.CipherMode.CBC, ciphers[i], ivs[i], plains[i])
            for i in range(n)
        ]
        assert cbc_encrypt_many(ciphers, ivs[:n], plains) == expected

    @given(
        plains=batches,
        keys=st.lists(des_keys, min_size=1, max_size=4),
        ivs=st.lists(lane_ivs, min_size=20, max_size=20),
        flip_byte=st.integers(min_value=0, max_value=10_000),
        flip_bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=50, deadline=None)
    def test_decrypt_parity_with_bit_flip(
        self, plains, keys, ivs, flip_byte, flip_bit
    ):
        n = len(plains)
        ciphers = self._ciphers(keys, n)
        wires = cbc_encrypt_many(ciphers, ivs[:n], plains)
        # Flip one bit of one lane's ciphertext: vector decrypt must
        # fail (None) on exactly the lanes where scalar decrypt raises,
        # and agree byte-for-byte on the lanes where both succeed.
        lane = flip_byte % n
        blob = bytearray(wires[lane])
        blob[flip_byte % len(blob)] ^= 1 << flip_bit
        wires[lane] = bytes(blob)
        got = cbc_decrypt_many(ciphers, ivs[:n], wires)
        for i in range(n):
            try:
                expected = modes.decrypt(
                    modes.CipherMode.CBC, ciphers[i], ivs[i], wires[i]
                )
            except ValueError:
                expected = None
            assert got[i] == expected


class TestMacRejectionParity:
    @given(
        messages=batches,
        flip_byte=st.integers(min_value=0, max_value=10_000),
        flip_bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=50, deadline=None)
    def test_single_bit_flip_rejects_in_both_paths(
        self, messages, flip_byte, flip_bit
    ):
        keys = [bytes([0x42 + i]) * 16 for i in range(len(messages))]
        macs = keyed_md5_many(keys, messages)
        lane = flip_byte % len(messages)
        blob = bytearray(messages[lane])
        if not blob:
            blob = bytearray(b"\x00")
        blob[flip_byte % len(blob)] ^= 1 << flip_bit
        tampered = list(messages)
        tampered[lane] = bytes(blob)
        recomputed_v = keyed_md5_many(keys, tampered)
        for i in range(len(messages)):
            recomputed_s = keyed_md5(keys[i], tampered[i])
            assert recomputed_v[i] == recomputed_s
            # Both paths verify with the same constant-time compare,
            # so acceptance is identical lane by lane -- and the
            # tampered lane is always rejected.
            assert constant_time_equal(
                recomputed_v[i], macs[i]
            ) == constant_time_equal(recomputed_s, macs[i])
            if i == lane:
                assert not constant_time_equal(recomputed_v[i], macs[i])
