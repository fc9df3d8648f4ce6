"""The DES lane kernel against the FIPS 46 specification implementation.

``tests/crypto/test_vector.py`` pins the CBC drivers to the scalar mode
layer; this file pins what is underneath them -- IP, sixteen four-call
rounds on the windowed state (``h`` low, ``rotr(h, 4)`` high), FP -- to
:mod:`repro.crypto.des_reference`, block by block, at the widths where
the kernel changes behaviour: one lane, the scratch-cache bound, and a
width far past it.  The round rows are pinned by what they mean: the
scalar schedule's key bytes, each above its table's slot id.
"""

import ast
import inspect
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


def _scalar_bytes(subkey):
    """A scalar ``(ka, kb)`` round key as the eight window bytes it keys,
    slot order (``ka`` low to high, then ``kb``)."""
    ka, kb = subkey
    return [(ka >> 8 * i) & 0xFF for i in range(4)] + [
        (kb >> 8 * i) & 0xFF for i in range(4)
    ]


class TestMaskRows:
    """What a round row means, whatever array holds it."""

    @pytest.mark.parametrize("decrypt", [False, True])
    def test_each_slot_is_the_scalar_key_byte_above_its_slot_id(self, decrypt):
        cipher = _CIPHERS[5]
        schedule = cipher.subkeys_rev if decrypt else cipher.subkeys
        rows = lane_des._mask_rows([cipher], decrypt=decrypt)
        for rnd, subkey in enumerate(schedule):
            for slot, key_byte in enumerate(_scalar_bytes(subkey)):
                (value,) = rows[rnd, slot].tolist()
                assert value & 0xFF == key_byte
                assert value >> 8 == slot

    def test_rows_are_built_once_per_cipher_for_both_directions(self):
        cipher = DES(b"\x02" * 8)
        assert cipher._vector is None
        forward = lane_des._mask_rows([cipher], decrypt=False)
        cached = cipher._vector
        backward = lane_des._mask_rows([cipher, cipher], decrypt=True)
        assert cipher._vector is cached
        assert (backward[::-1] == forward).all()

    def test_one_key_broadcasts_and_prefixes_stay_valid(self):
        single = lane_des._mask_rows([_CIPHERS[0]] * 5, decrypt=False)
        mixed = lane_des._mask_rows(_CIPHERS[:5], decrypt=False)
        assert single.shape[2] == 1
        assert mixed.shape[2] == 5
        # The prefix slice the encrypt loop takes is valid for both.
        assert single[:, :, :3].shape[2] == 1
        assert mixed[:, :, :3].shape[2] == 3
        assert (mixed[:, :, :1] == single).all()

    def test_repeats_expand_lanes_to_blocks(self):
        rows = lane_des._mask_rows(_CIPHERS[:2], decrypt=True, repeats=[3, 2])
        lone = [lane_des._mask_rows([c], decrypt=True) for c in _CIPHERS[:2]]
        assert rows.shape[2] == 5
        for column, lane in enumerate([0, 0, 0, 1, 1]):
            assert (rows[:, :, column] == lone[lane][:, :, 0]).all()


class _Counting:
    """A stand-in for one of ``_rounds``' bound calls that counts them."""

    def __init__(self, call):
        self.call = call
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.call(*args)


@pytest.mark.parametrize("width", [1, 64])
def test_a_round_is_four_numpy_calls(width):
    lanes = lane_des._lanes(width)
    lanes.state[:] = 0
    # Its bound defaults are the only callables a round reaches.
    defaults = lane_des._rounds.__defaults__
    assert len(defaults) == 3
    xor, take, or_reduce = (_Counting(call) for call in defaults)
    ciphers = [_CIPHERS[lane % len(_CIPHERS)] for lane in range(width)]
    rows = list(lane_des._mask_rows(ciphers, decrypt=False))
    lane_des._rounds(lanes, rows, xor, take, or_reduce)
    assert (xor.calls, take.calls, or_reduce.calls) == (32, 16, 16)
    (loop,) = [
        node
        for node in ast.walk(ast.parse(inspect.getsource(lane_des._rounds)))
        if isinstance(node, ast.For)
    ]
    body = [node for statement in loop.body for node in ast.walk(statement)]
    assert sum(isinstance(node, ast.Call) for node in body) == 4


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
