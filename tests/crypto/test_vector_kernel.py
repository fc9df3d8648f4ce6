"""The DES lane kernel against the FIPS 46 specification implementation.

``tests/crypto/test_vector.py`` pins the CBC drivers to the scalar mode
layer; this file pins what is underneath them -- IP, sixteen two-call
rounds on the keyed window state ``Q_r = E(R_r) ^ K_r | TAG``, FP -- to
:mod:`repro.crypto.des_reference`, block by block, at the widths where
the kernel changes behaviour: one lane, the scratch-cache bound, either
side of the width where IP and FP change form, and a width far past
it.  Both forms of IP and FP are pinned to the scalar kernel's tables
on their own.  The key words, the pair table and the tag are pinned by
what they mean, whatever arrays hold them.
"""

import ast
import dis
import inspect
import random
import sys
from collections import Counter

import numpy as np
import pytest

from repro.crypto import des_reference, modes, vector
from repro.crypto.des import _FP_LUT, _IP_LUT, _SP, DES, _apply_luts
from repro.crypto.vector import des as lane_des

MIN = lane_des._NETWORK_MIN_BLOCKS
WIDTHS = [1, 2, 63, 64, 65, MIN - 1, MIN, 8192]

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
    raw = np.frombuffer(b"".join(blocks), dtype=">u8")
    words = lane_des._lane_words(ciphers, decrypt=decrypt)
    out = lane_des._pass(lane_des._lanes(width), words, raw).tobytes()
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


@pytest.mark.parametrize("decrypt", [False, True])
@pytest.mark.parametrize("width", WIDTHS)
def test_single_key_pass_matches_reference(width, decrypt):
    r = random.Random(~width)
    picks = [r.randrange(len(_BLOCKS)) for _ in range(width)]
    got = _ecb_pass(
        [_CIPHERS[3]] * width, [_BLOCKS[block] for block in picks], decrypt
    )
    assert got == [_reference(3, block, decrypt) for block in picks]


def test_fips_known_answer():
    # The classic worked example (key 133457799BBCDFF1).
    cipher = DES(bytes.fromhex("133457799BBCDFF1"))
    assert _ecb_pass([cipher], [bytes.fromhex("0123456789ABCDEF")], False) == [
        bytes.fromhex("85E813540F0AB405")
    ]
    assert _ecb_pass([cipher], [bytes.fromhex("85E813540F0AB405")], True) == [
        bytes.fromhex("0123456789ABCDEF")
    ]


def _window_form(h):
    """A 32-bit rotated half as its eight six-bit windows: ``h`` low,
    ``rotr(h, 4)`` high, each byte's two top bits clear."""
    rotated = (h >> 4 | h << 28) & 0xFFFFFFFF
    return (h | rotated << 32) & 0x3F3F3F3F3F3F3F3F


_FORMS = {
    "gather": (lane_des._ip_gather, lane_des._fp_gather),
    "network": (lane_des._ip_network, lane_des._fp_network),
}
# A bit permutation is linear over XOR: the 64 unit blocks pin it, and
# random blocks check the same through every path at once.
_UNITS = [1 << bit for bit in range(64)]
_VALUES = _UNITS + [random.Random(64).getrandbits(64) for _ in range(64)]


class TestPermutationForms:
    """IP and FP, each form on its own, against the scalar byte tables."""

    @pytest.mark.parametrize("form", sorted(_FORMS))
    def test_ip_is_the_window_form_of_the_scalar_ip(self, form):
        ip, _ = _FORMS[form]
        halves = np.empty((2, len(_VALUES)), dtype=np.uint64)
        ip(np.array(_VALUES, dtype=">u8"), halves)
        for value, left, right in zip(_VALUES, *halves.tolist()):
            # The scalar IP tables give rotl(L0, 1) << 32 | rotl(R0, 1).
            rotated = _apply_luts(value, 64, _IP_LUT)
            assert (left, right) == (
                _window_form(rotated >> 32),
                _window_form(rotated & 0xFFFFFFFF),
            ), hex(value)

    @pytest.mark.parametrize("form", sorted(_FORMS))
    def test_fp_reads_the_windows_and_ignores_the_rest(self, form):
        _, fp = _FORMS[form]
        r = random.Random(form)
        # Every bit outside the windows, the tags among them, is noise.
        def noisy(h):
            return _window_form(h) | r.getrandbits(64) & ~0x3F3F3F3F3F3F3F3F

        rows = [
            [noisy(value >> 32) for value in _VALUES],
            [noisy(value & 0xFFFFFFFF) for value in _VALUES],
        ]
        out = fp(np.array(rows, dtype=np.uint64)).tobytes()
        for i, value in enumerate(_VALUES):
            # The scalar FP tables read (rotl(R16, 1), rotl(L16, 1)).
            expected = _apply_luts(value, 64, _FP_LUT).to_bytes(8, "big")
            assert out[8 * i : 8 * i + 8] == expected, hex(value)

    def test_the_width_picks_the_form_at_one_constant(self):
        assert lane_des._permutations(MIN - 1) == _FORMS["gather"]
        assert lane_des._permutations(MIN) == _FORMS["network"]
        assert lane_des._CACHED_WIDTH < MIN


def _lanes_of(counts, seed):
    """One cipher, IV and plaintext a lane, the plaintext padding to
    ``counts[lane]`` blocks."""
    r = random.Random(seed)
    ciphers = [_CIPHERS[lane % len(_CIPHERS)] for lane in range(len(counts))]
    ivs = [r.randbytes(8) for _ in counts]
    texts = [r.randbytes(8 * count - 1 - r.randrange(8)) for count in counts]
    return ciphers, ivs, texts


@pytest.fixture
def chosen(monkeypatch):
    """The block counts ``_permutations`` is asked about."""
    asked = []
    choose = lane_des._permutations

    def spy(blocks):
        asked.append(blocks)
        return choose(blocks)

    monkeypatch.setattr(lane_des, "_permutations", spy)
    return asked


# Lane shapes whose flattened width is ``width``: one long lane, ragged
# lanes (decrypt flattens them; encrypt's rectangle is lanes x longest),
# and one block a lane.
_SHAPES = {
    "one lane": lambda width: [width],
    "ragged": lambda width: [width - 10, 7, 2, 1],
    "one block a lane": lambda width: [1] * width,
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("width", [MIN - 1, MIN])
def test_cbc_batches_either_side_of_the_boundary_match_modes(width, shape, chosen):
    counts = _SHAPES[shape](width)
    ciphers, ivs, texts = _lanes_of(counts, f"{shape} {width}")
    bodies = vector.cbc_encrypt_many(ciphers, ivs, texts)
    assert bodies == [modes.encrypt_cbc(c, iv, t) for c, iv, t in zip(ciphers, ivs, texts)]
    assert vector.cbc_decrypt_many(ciphers, ivs, bodies) == texts
    # Decrypt flattens every block; encrypt pads lanes to the longest.
    assert chosen == [len(counts) * max(counts), width]


class TestKeyWords:
    """What a cipher's eighteen words mean, whatever array holds them."""

    @pytest.mark.parametrize("decrypt", [False, True])
    def test_each_difference_word_is_its_neighbours_xor(self, decrypt):
        cipher = _CIPHERS[5]
        schedule = cipher.subkeys_rev if decrypt else cipher.subkeys
        keys = [0] + [ka | kb << 32 for ka, kb in schedule] + [0]
        words = lane_des._lane_words([cipher], decrypt=decrypt)[:, 0].tolist()
        assert len(words) == 18
        for rnd in range(16):
            # K_{r-1} ^ K_{r+1}, with K_{-1} = K_16 = 0.
            assert words[1 + rnd] == keys[rnd] ^ keys[rnd + 2]

    def test_both_directions_are_cached_once_per_cipher(self):
        cipher = DES(b"\x02" * 8)
        assert cipher._vector is None
        lane_des._lane_words([cipher], decrypt=False)
        cached = cipher._vector
        assert cached.shape == (2, 18)
        lane_des._lane_words([cipher, cipher], decrypt=True)
        lane_des._lane_words([cipher, _CIPHERS[0]], decrypt=False)
        assert cipher._vector is cached

    def test_a_single_key_batch_is_one_column(self):
        cipher = _CIPHERS[2]
        for decrypt in (False, True):
            one = lane_des._lane_words([cipher] * 5, decrypt=decrypt)
            assert one.shape == (18, 1)
            assert (one[:, 0] == cipher._vector[int(decrypt)]).all()

    def test_lanes_are_columns_and_one_lane_broadcasts(self):
        mixed = lane_des._lane_words(_CIPHERS[:5], decrypt=False)
        assert mixed.shape == (18, 5)
        for lane in range(5):
            one = lane_des._lane_words([_CIPHERS[lane]], decrypt=False)
            # One lane is one column, which broadcasts against any width.
            assert one.shape == (18, 1)
            assert (mixed[:, lane : lane + 1] == one).all()


class TestPairTable:
    """The one gather table and the tag that indexes it."""

    def test_tag_puts_pair_k_at_offset_k(self):
        tag = int(lane_des._TAG)
        tag_bytes = tag.to_bytes(8, "little")
        for k in range(4):
            assert tag_bytes[2 * k] == k << 6
            assert tag_bytes[2 * k + 1] == 0
        assert tag & 0x3F3F3F3F3F3F3F3F == 0

    def test_each_pair_entry_is_the_masked_sp_pair_at_its_tag(self):
        # State bytes 0..7 are the windows of boxes 7, 5, 3, 1, 6, 4, 2, 0.
        boxes = [7, 5, 3, 1, 6, 4, 2, 0]
        table = lane_des._PAIR.tolist()
        assert len(table) == 1 << 14
        for index, entry in enumerate(table):
            k, a, b = index >> 6 & 3, index & 63, index >> 8
            pair = _SP[boxes[2 * k]][a] | _SP[boxes[2 * k + 1]][b]
            assert entry == _window_form(pair), hex(index)

    @pytest.mark.parametrize("width", [1, 64])
    def test_tag_is_intact_after_a_full_pass(self, width):
        r = random.Random(width)
        blocks = [r.randbytes(8) for _ in range(width)]
        ciphers = [_CIPHERS[lane % len(_CIPHERS)] for lane in range(width)]
        lanes = lane_des._lanes(width)
        got = _ecb_pass(ciphers, blocks, False)
        assert got == [_REFERENCE[lane % len(_CIPHERS)].encrypt_block(block)
                       for lane, block in enumerate(blocks)]  # fmt: skip
        # Every state the pass wrote, Q_{-1} .. Q_16: row 4 of each slab,
        # then the last two words.
        states = list(lanes.words[4:96:6]) + [lanes.words[96], lanes.words[97]]
        assert len(states) == 18
        for state in states:
            assert (state & ~lane_des._WINDOWS == lane_des._TAG).all()


class _Counting:
    """A stand-in for one of ``_rounds``' bound calls that counts them."""

    def __init__(self, call):
        self.call = call
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.call(*args)


@pytest.mark.parametrize("width", [1, 64])
def test_a_round_is_two_numpy_calls(width):
    lanes = lane_des._lanes(width)
    lanes.words[:] = 0
    lanes.entry[:] = lane_des._TAG
    # Its bound defaults are the only callables a round reaches.
    defaults = lane_des._rounds.__defaults__
    assert len(defaults) == 2
    take, xor_reduce = (_Counting(call) for call in defaults)
    lane_des._rounds(lanes.plan, take, xor_reduce)
    assert (take.calls, xor_reduce.calls) == (16, 16)
    (loop,) = [
        node
        for node in ast.walk(ast.parse(inspect.getsource(lane_des._rounds)))
        if isinstance(node, ast.For)
    ]
    body = [node for statement in loop.body for node in ast.walk(statement)]
    assert sum(isinstance(node, ast.Call) for node in body) == 2


def _calls(run):
    """Bytecodes ``run`` executes in the lane module's frames, by name."""
    counts = Counter()

    def trace(frame, event, arg):
        if frame.f_globals.get("__name__") != lane_des.__name__:
            return None
        frame.f_trace_opcodes = True
        if event == "opcode":
            counts[dis.opname[frame.f_code.co_code[frame.f_lasti]]] += 1
        return trace

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def test_the_network_form_runs_the_same_calls_at_any_width():
    counts = []
    for width in (MIN, 8 * MIN):
        blocks = np.arange(width, dtype=">u8")
        halves = np.empty((2, width), dtype=np.uint64)

        def run():
            lane_des._ip_network(blocks, halves)
            lane_des._fp_network(halves)

        counts.append(_calls(run))
    # No bytecode runs a block at a time, so every numpy call (a call or
    # an operator) runs over whole arrays, about 45 a permutation.
    assert counts[0] == counts[1]
    numpy_calls = sum(n for name, n in counts[0].items() if name.startswith(("CALL", "BINARY_OP")))
    assert 60 <= numpy_calls <= 120


def test_cached_widths_share_one_scratch_buffer():
    bound = lane_des._CACHED_WIDTH
    assert lane_des._lanes(bound) is lane_des._lanes(bound)
    assert lane_des._lanes(bound + 1) is not lane_des._lanes(bound + 1)
    # Every view a width keeps is into its words; a cached width's words
    # are the shared buffer's prefix, so the cache's scratch is that
    # buffer whatever widths it holds.
    for width in (1, 3, bound):
        lanes = lane_des._lanes(width)
        for view in (lanes.keys, lanes.entry, lanes.ends, *sum(lanes.plan, ())):
            assert np.shares_memory(view, lanes.words)
        assert lanes.words.base is lane_des._SCRATCH
        assert lanes.words.shape == (98, width)
    assert not np.shares_memory(lane_des._lanes(bound + 1).words, lane_des._SCRATCH)
    assert lane_des._SCRATCH.nbytes == 98 * 8 * bound <= 8 << 20


def test_short_iv_is_refused_not_misaligned():
    cipher = _CIPHERS[0]
    with pytest.raises(ValueError):
        vector.cbc_encrypt_many([cipher, cipher], [b"short", b"toolong!!!!"], [b"a", b"b"])
    with pytest.raises(ValueError):
        vector.cbc_decrypt_many([cipher, cipher], [b"short", b"toolong!!!!"], [b"x" * 8] * 2)
