"""The DES lane kernel against the FIPS 46 specification implementation.

``tests/crypto/test_vector.py`` pins the CBC drivers to the scalar mode
layer; this file pins what is underneath them -- IP, sixteen rounds on
the rotated, doubled state, FP -- to :mod:`repro.crypto.des_reference`,
block by block, at the widths where the kernel changes behaviour: one
lane, the scratch-cache bound, and a width far past it.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.crypto import des_reference, vector
from repro.crypto.des import DES
from repro.crypto.vector import des as lane_des

WIDTHS = [1, 2, 63, 64, 65, 8192]

_RNG = random.Random(0xDE5)
_KEYS = [_RNG.randbytes(8) for _ in range(8)]
_BLOCKS = [_RNG.randbytes(8) for _ in range(32)]
_CIPHERS = [DES(key) for key in _KEYS]
_REFERENCE = [des_reference.DES(key) for key in _KEYS]
_KNOWN = {}


def _reference(key, block, decrypt):
    """One reference block, computed once per distinct (key, block)."""
    known = _KNOWN.get((key, block, decrypt))
    if known is None:
        cipher = _REFERENCE[key]
        crypt = cipher.decrypt_block if decrypt else cipher.encrypt_block
        known = _KNOWN[key, block, decrypt] = crypt(_BLOCKS[block])
    return known


def _ecb_pass(ciphers, blocks, decrypt):
    """Raw blocks through the kernel, no chaining: IP, rounds, FP."""
    width = len(blocks)
    lanes = lane_des._lanes(width)
    raw = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(width, 8)
    lane_des._initial(lanes, raw)
    lane_des._rounds(lanes, lane_des._mask_rows(ciphers, decrypt=decrypt))
    out = lane_des._final(lanes, lanes.state[::-1]).tobytes()
    return [out[8 * i : 8 * i + 8] for i in range(width)]


@pytest.mark.parametrize("decrypt", [False, True])
@pytest.mark.parametrize("width", WIDTHS)
def test_mixed_key_pass_matches_reference(width, decrypt):
    r = random.Random(width)
    picks = [
        (r.randrange(len(_KEYS)), r.randrange(len(_BLOCKS)))
        for _ in range(width)
    ]
    got = _ecb_pass(
        [_CIPHERS[key] for key, _ in picks],
        [_BLOCKS[block] for _, block in picks],
        decrypt,
    )
    assert got == [_reference(key, block, decrypt) for key, block in picks]


@pytest.mark.parametrize("width", WIDTHS)
def test_single_key_pass_matches_reference(width):
    r = random.Random(~width)
    picks = [r.randrange(len(_BLOCKS)) for _ in range(width)]
    got = _ecb_pass(
        [_CIPHERS[3]] * width, [_BLOCKS[block] for block in picks], False
    )
    assert got == [_reference(3, block, False) for block in picks]


def test_fips_known_answer():
    # The classic worked example (key 133457799BBCDFF1).
    cipher = DES(bytes.fromhex("133457799BBCDFF1"))
    assert _ecb_pass([cipher], [bytes.fromhex("0123456789ABCDEF")], False) == [
        bytes.fromhex("85E813540F0AB405")
    ]


class TestMaskRows:
    def test_single_and_mixed_key_batches_share_one_shape(self):
        single = lane_des._mask_rows([_CIPHERS[0]] * 5, decrypt=False)
        mixed = lane_des._mask_rows(_CIPHERS[:5], decrypt=False)
        assert single.shape == (16, 2, 1)
        assert mixed.shape == (16, 2, 5)
        # The prefix slice the encrypt loop takes is valid for both.
        assert single[:, :, :3].shape == (16, 2, 1)
        assert mixed[:, :, :3].shape == (16, 2, 3)
        assert (mixed[:, :, :1] == single).all()

    def test_masks_are_packed_once_per_cipher_both_directions(self):
        cipher = DES(b"\x02" * 8)
        assert cipher._vector is None
        forward = lane_des._mask_rows([cipher], decrypt=False)
        cached = cipher._vector
        assert cached.shape == (2, 16, 2)
        backward = lane_des._mask_rows([cipher, cipher], decrypt=True)
        assert cipher._vector is cached
        assert (backward[::-1] == forward).all()

    def test_repeats_expand_lanes_to_blocks(self):
        rows = lane_des._mask_rows(_CIPHERS[:2], decrypt=True, repeats=[3, 2])
        assert rows.shape == (16, 2, 5)
        assert (rows[:, :, 0] == rows[:, :, 2]).all()
        assert (rows[:, :, 3] == rows[:, :, 4]).all()


def test_scratch_is_kept_only_for_call_bound_widths():
    bound = lane_des._CACHED_WIDTH
    assert lane_des._lanes(bound) is lane_des._lanes(bound)
    assert lane_des._lanes(bound + 1) is not lane_des._lanes(bound + 1)


def test_short_iv_is_refused_not_misaligned():
    cipher = _CIPHERS[0]
    with pytest.raises(ValueError):
        vector.cbc_encrypt_many([cipher, cipher], [b"short", b"toolong!!!!"], [b"a", b"b"])
    with pytest.raises(ValueError):
        vector.cbc_decrypt_many([cipher, cipher], [b"short", b"toolong!!!!"], [b"x" * 8] * 2)
