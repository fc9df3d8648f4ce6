"""Lane-parallel DES-CBC over numpy ``uint64`` arrays, two calls a round.

The scalar kernel (:mod:`repro.crypto.des`) runs one block through
sixteen table-lookup rounds; here the rounds run over *arrays* of
blocks.  At datagram-batch widths (tens of lanes) a pass costs its
number of numpy calls, not its data, so a round is two calls, a gather
and a reduce:

* **The state is its own index.**  A half ``R_r`` is kept as ``Q_r =
  E(R_r) ^ K_r | TAG`` in one ``<u8`` word.  ``E`` is the scalar
  kernel's window form: ``h = rotl(R, 1)`` low, ``rotr(h, 4)`` high,
  masked with ``0x3F..3F``, so the word's eight bytes are the eight
  S-box windows (boxes 7, 5, 3, 1, then 6, 4, 2, 0).  ``K_r`` is the
  scalar schedule's ``ka | kb << 32`` (``DES.subkeys``), which keys
  those bytes.  ``TAG`` fills two of the bits the mask frees: bits 6-7
  of byte ``2k`` hold ``k``.  Read as four ``uint16``, word ``k`` is
  window pair ``k`` beside its tag, a direct index into one 16,384-entry
  pair table (128 KB) whose entries are the two boxes' SP words in the
  same form, ORed.  So the gather needs no index-building call.
* **A round is one gather and one XOR-reduce.**  ``R_{r+1} = R_{r-1} ^
  f(R_r)`` and ``E`` is linear, so ``Q_{r+1} = Q_{r-1} ^ (K_{r-1} ^
  K_{r+1}) ^ E(f)``.  Round ``r``'s slab holds six rows: the four
  lookups, ``Q_{r-1}`` and that key difference.  The reduce over the
  slab axis writes ``Q_{r+1}`` straight into the slab two rounds on.
  Lookups and key words carry no tag, so ``TAG`` survives every round.
* **Key words.**  A cipher caches eighteen words a direction in
  ``DES._vector``: ``K_0``, the sixteen differences (``K_{-1} = K_16 =
  0``) and ``K_15``.  Entry adds ``K_0`` and ``TAG``, exit removes
  ``K_15``.
* **IP and FP in two forms, chosen by width.**  Both map big-endian
  block words to the window form of both halves and back, tags
  ignored.  A narrow pass gathers the scalar kernel's byte tables:
  few calls, but about 0.14 us a block and index arrays that grow
  with the width.  A pass of ``_NETWORK_MIN_BLOCKS`` blocks or more
  runs the five-stage ``PERM_OP`` network of d3des and libdes as
  delta swaps over whole ``uint64`` arrays: about 45 elementwise
  calls a permutation whatever the width.  :func:`_permutations` is
  the one place the form is chosen.

A call costs what its Python wrapper costs too, so the gather is the
table's bound ``take`` (``np.take`` is two Python-level wrappers on top),
and a width's sixteen rounds of views are a plan built once.

Two CBC drivers with different parallel axes:

* :func:`cbc_encrypt_many` chains within a lane, so it is lane-parallel
  and block-sequential: lanes sorted longest-first, each step running
  the still-active prefix.  IP and FP are hoisted out of the chain: IP
  is a bit permutation, so ``IP(P ^ C) = IP(P) ^ IP(C)``, and
  ``IP(FP(x)) = x``, so the chain value is the previous step's pre-FP
  state.  With ``K_15 ^ K_0`` folded into every permuted plaintext's
  low half and ``TAG`` (and ``K_15``) into the IV row once a batch, a
  step's pre-FP state (``Q_16``, ``Q_15``) XORed with the next block is
  that block's (``Q_{-1}``, ``Q_0``): a step is one XOR, the rounds
  and one copy, and FP runs once over all outputs.
* :func:`cbc_decrypt_many` has no chain (``P_i = D(C_i) ^ C_{i-1}``):
  every block of every lane flattens into one pass, the chain inputs
  being the ciphertext shifted by one block with the IVs scattered at
  lane starts.  One datagram is the one-lane case: its blocks are its
  lanes.

Outputs are bit-identical to :mod:`repro.crypto.modes` (the
differential reference).  The shared scratch is not thread-safe.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.crypto.des import _FP_LUT, _IP_LUT, _SP, DES
from repro.crypto.modes import pad_block, unpad_block

__all__ = ["cbc_decrypt_many", "cbc_encrypt_many"]

#: Little-endian on every host, so byte and pair views read the same
#: windows.
_U8 = np.dtype("<u8")
#: The eight six-bit windows of a state word.
_WINDOWS = np.uint64(0x3F3F3F3F3F3F3F3F)
#: Bits 6-7 of byte ``2k`` hold ``k``: the ``uint16`` word ``k`` of a
#: state is ``pair k | k << 6``, its offset in the pair table.
_TAG = np.uint64(0x00C0_0080_0040_0000)


#: Shift counts and masks as ``uint64``: a Python int operand costs
#: every ufunc call a scalar conversion.
_1, _28, _31, _32 = (np.uint64(count) for count in (1, 28, 31, 32))
_HALF = np.uint64(0xFFFFFFFF)
#: The windows of ``h`` and of ``rotr(h, 4) << 32``.
_LOW_WINDOWS = np.uint64(0x3F3F3F3F)
_HIGH_WINDOWS = np.uint64(0x3F3F3F3F_00000000)


def _window_form(words, t, u):
    """32-bit ``h`` words as ``E``-form words, in place: ``h`` low,
    ``rotr(h, 4)`` high, masked to the eight windows.  Linear over XOR
    and OR.  ``t`` and ``u`` are scratch of the words' shape: at pass
    widths a temporary costs more than the arithmetic."""
    # Above bit 31, h << 28 | h << 60 is rotr(h, 4) << 32.
    np.left_shift(words, _28, t)
    np.left_shift(t, _32, u)
    t |= u
    t &= _HIGH_WINDOWS
    words &= _LOW_WINDOWS
    words |= t


def _luts():
    """IP, the pair table and FP, each laid out for one gather.

    ``ip[half, 256 * position + byte]`` is that raw-block byte's share
    of the ``E``-form of L0 (half 0) or R0.  ``pair[b << 8 | k << 6 |
    a]`` is the SP words of window pair ``k`` (state bytes ``2k`` and
    ``2k + 1``) at inputs ``a`` and ``b``.  ``fp[256 * (8 * half +
    byte) + value]`` is that state byte's share of the block, R16 being
    half 0, stored so the array's bytes are the big-endian block.
    """
    ip = np.array(_IP_LUT, dtype=_U8)
    ip = np.stack([ip >> _32, ip & _HALF])
    _window_form(ip, np.empty_like(ip), np.empty_like(ip))
    ip = ip.reshape(2, -1)
    boxes = np.array(_SP, dtype=_U8)[[7, 5, 3, 1, 6, 4, 2, 0]]
    _window_form(boxes, np.empty_like(boxes), np.empty_like(boxes))
    pair = (np.ascontiguousarray(boxes[1::2].T)[:, :, None] | boxes[0::2]).reshape(-1)
    # The scalar FP tables read h's bytes, counted from the state's high
    # end.  A low state byte holds bits 0-5 of h's byte and the high
    # byte beside it (``rotr(h, 4)``) bits 6-7, as its bits 2-3.  Axes:
    # half, low or high, byte, then the value's bits 6-7, 4-5, 2-3, 0-1,
    # so each table repeats the scalar entries of its live bits alone.
    order = [3, 2, 1, 0, 7, 6, 5, 4]
    fp = np.empty((2, 2, 4, 4, 4, 4, 4), dtype=">u8")
    fp[:, 0] = np.array([_FP_LUT[i][:64] for i in order], dtype=_U8).reshape(2, 4, 1, 4, 4, 4)
    fp[:, 1] = np.array([_FP_LUT[i][::64] for i in order], dtype=_U8).reshape(2, 4, 1, 1, 4, 1)
    return ip, pair, fp.view(_U8).reshape(-1)


_IP, _PAIR, _FP = _luts()
#: Table offsets of a half's eight bytes, or of a raw block's.
_FP_OFFSETS = (256 * np.arange(16, dtype=np.intp)).reshape(2, 8, 1)
_IP_OFFSETS = _FP_OFFSETS[0]

#: Widths up to this keep their plan: the widths where a pass is
#: call-bound.  Their scratch is one buffer, 784 B a lane at the widest
#: (196 KiB), as one pass runs at a time.
_CACHED_WIDTH = 256
_SCRATCH = np.empty(98 * _CACHED_WIDTH, dtype=_U8)


class _Lanes:
    """Scratch ``words`` for one width and the plan of views its rounds
    read.

    ``words`` is sixteen slabs of six rows (four lookups, ``Q_{r-1}``,
    key difference ``r``) and then ``Q_15``, ``Q_16``.
    """

    __slots__ = ("words", "keys", "entry", "ends", "plan")

    def __init__(self, words):
        width = words.shape[1]
        self.words = words
        slabs = words[:96].reshape(16, 6, width)
        # states[i] is Q_{i-1}.
        states = [*slabs[:, 4], *words[96:]]
        self.keys = slabs[:, 5]
        #: (Q_{-1}, Q_0): where IP or a chain step writes.
        self.entry = slabs[:2, 4]
        #: (Q_16, Q_15): the pre-FP (R16, L16), ``K_15`` still in L16.
        self.ends = words[96:][::-1]
        #: Round r: Q_r as four pair indices, the lookups, the slab,
        #: and Q_{r+1}.
        self.plan = [
            (states[r + 1].view("<u2").reshape(width, 4).T,
             slabs[r, :4], slabs[r], states[r + 2])
            for r in range(16)
        ]  # fmt: skip


_LANES: Dict[int, _Lanes] = {}


def _lanes(width: int) -> _Lanes:
    lanes = _LANES.get(width)
    if lanes is None:
        if width > _CACHED_WIDTH:
            return _Lanes(np.empty((98, width), dtype=_U8))
        lanes = _LANES[width] = _Lanes(_SCRATCH[: 98 * width].reshape(98, width))
    return lanes


def _rounds(plan, take=_PAIR.take, xor_reduce=np.bitwise_xor.reduce):
    """Sixteen DES rounds over a width's plan, in place: two calls each.

    Every index is a pair, a tag and no more, so in range: "clip" only
    spares ``take`` the bounce buffer "raise" needs with ``out=``.
    """
    for index, lookups, slab, target in plan:
        take(index, None, lookups, "clip")
        xor_reduce(slab, 0, None, target)


def _ip_gather(blocks, halves):
    """IP of contiguous ``>u8`` block words into ``(2, width)``
    ``E``-form (L0, R0), untagged and unkeyed: sixteen byte gathers."""
    index = np.add(blocks.view(np.uint8).reshape(-1, 8).T, _IP_OFFSETS)
    parts = np.empty(index.shape, dtype=_U8)
    for table, half in zip(_IP, halves):
        table.take(index, None, parts, "clip")
        np.bitwise_or.reduce(parts, 0, None, half)


def _fp_gather(high_low):
    """FP of ``(2, width)`` (R16, L16) ``E``-form states, tags ignored:
    blocks as ``<u8`` words whose bytes in memory are the big-endian
    block.  Sixteen byte gathers."""
    state_bytes = high_low.view(np.uint8).reshape(2, -1, 8)
    index = np.add(state_bytes.transpose(0, 2, 1), _FP_OFFSETS)
    parts = _FP.take(index.reshape(16, -1), None, None, "clip")
    return np.bitwise_or.reduce(parts, 0)


#: IP's first four stages on ``L << 32 | R`` as delta swaps ``(d, m)``:
#: bits ``m`` trade places with bits ``m << d``.  FP runs them reversed.
_SWAPS = tuple(
    (np.uint64(d), np.uint64(m))
    for d, m in ((36, 0x0F0F0F0F), (48, 0x0000FFFF), (30, 0xCCCCCCCC), (24, 0xFF00FF00))
)
#: IP's fifth stage swaps these bits of the two halves.
_ODD = np.uint64(0xAAAAAAAA)
#: Bits 6-7 of ``h``'s bytes, which the high windows hold as bits 2-3.
_HIGH_PAIRS = np.uint64(0xC0C0C0C0)


def _delta_swaps(x, t, swaps):
    """Apply ``swaps`` to ``x`` in place, ``t`` scratch of its shape."""
    for d, m in swaps:
        np.right_shift(x, d, t)
        t ^= x
        t &= m
        x ^= t
        t <<= d
        x ^= t


def _rotl(half, t):
    """Rotate 32-bit words left by one, in place."""
    np.right_shift(half, _31, t)
    half <<= _1
    half |= t
    half &= _HALF


def _rotr(half, t):
    """Rotate 32-bit words right by one, in place."""
    np.left_shift(half, _31, t)
    half >>= _1
    half |= t
    half &= _HALF


def _swap_odd(left, right, t):
    np.bitwise_xor(left, right, t)
    t &= _ODD
    left ^= t
    right ^= t


def _ip_network(blocks, halves):
    """:func:`_ip_gather` as delta swaps over whole word arrays."""
    x = blocks.astype(np.uint64)
    t = np.empty_like(x)
    _delta_swaps(x, t, _SWAPS)
    left, right = halves
    np.right_shift(x, _32, left)
    np.bitwise_and(x, _HALF, right)
    # The fifth stage, leaving the rotated halves the rounds use.
    _rotl(right, t)
    _swap_odd(left, right, t)
    _rotl(left, t)
    for half in halves:
        _window_form(half, t, x)


def _fp_network(high_low):
    """:func:`_fp_gather` as IP's network run backwards."""
    # h from each window form; the tags fall outside both masks.
    h = high_low >> _28
    h &= _HIGH_PAIRS
    h |= high_low & _LOW_WINDOWS
    left, right = h
    t = np.empty_like(left)
    _rotr(left, t)
    _swap_odd(left, right, t)
    _rotr(right, t)
    x = left << _32
    x |= right
    _delta_swaps(x, t, _SWAPS[::-1])
    return x.byteswap(True)


#: Passes of at least this many blocks permute with the networks, whose
#: cost is their call count; narrower ones with the gathers, whose cost
#: is their blocks.  The crossover of ``make crossovers``' "DES lane
#: IP + FP by form" table; a 1,460 B body is 183 blocks, a batch of 64
#: of them 11,712.
_NETWORK_MIN_BLOCKS = 768


def _permutations(blocks):
    """``(ip, fp)`` for a pass of ``blocks`` blocks."""
    if blocks >= _NETWORK_MIN_BLOCKS:
        return _ip_network, _fp_network
    return _ip_gather, _fp_gather


def _lane_words(ciphers, decrypt):
    """Key words for a batch, ``(18, lanes)``: one column a lane, or one
    column for a single-key batch, which broadcasts against any width.

    Word ``w`` is ``K_{w-2} ^ K_w``, ``K_r = ka | kb << 32`` of the
    scalar schedule and zero outside rounds 0..15: word 0 is ``K_0``,
    words 1..16 round ``r``'s ``K_{r-1} ^ K_{r+1}``, and word 17
    ``K_15``.  Each cipher caches both directions' words, ``(2, 18)``,
    direction 1 being the reversed (decryption) schedule.
    """
    if ciphers.count(ciphers[0]) == len(ciphers):
        ciphers = ciphers[:1]
    words = []
    for cipher in ciphers:
        cached = cipher._vector
        if cached is None:
            keys = np.zeros((2, 20), dtype=_U8)
            # Little-endian, so a (ka, kb) pair read as one word is ka | kb << 32.
            keys[:, 2:18, None] = np.array(
                [cipher.subkeys, cipher.subkeys_rev], dtype="<u4"
            ).view(_U8)
            cached = cipher._vector = keys[:, 2:] ^ keys[:, :-2]
        words.append(cached[int(decrypt)])
    return np.array(words).T


def _pass(lanes, words, blocks):
    """Contiguous ``>u8`` block words through IP, the rounds and FP under
    key words ``(18, 1 or width)``: ECB, as ``<u8`` big-endian block
    words."""
    ip, fp = _permutations(len(blocks))
    np.copyto(lanes.keys, words[1:17])
    entry = lanes.entry
    ip(blocks, entry)
    entry ^= _TAG
    entry[1] ^= words[0]
    _rounds(lanes.plan)
    ends = lanes.ends
    ends[1] ^= words[17]
    return fp(ends)


def _check_lanes(ciphers, ivs, texts) -> int:
    """The lane count, once the three sequences are parallel and every
    IV is one block (the buffers below are laid out on that)."""
    n = len(texts)
    if len(ciphers) != n or len(ivs) != n:
        raise ValueError("ciphers and ivs must be parallel to the texts")
    if any(len(iv) != 8 for iv in ivs):
        raise ValueError("IV/confounder must be 8 bytes")
    return n


def cbc_encrypt_many(
    ciphers: Sequence[DES], ivs: Sequence[bytes], plaintexts: Sequence[bytes]
) -> List[bytes]:
    """PKCS#7-pad and CBC-encrypt independent lanes.

    Lane-parallel and block-sequential: encryption chains within each
    lane, so the batch axis is the only parallel axis.  Lanes run
    longest-first so a ragged batch shrinks to prefix views.  Output is
    bit-identical to per-lane ``modes.encrypt_cbc``.
    """
    n = _check_lanes(ciphers, ivs, plaintexts)
    if n == 0:
        return []
    padded = [pad_block(plaintext) for plaintext in plaintexts]
    nblocks = [len(data) >> 3 for data in padded]
    order = sorted(range(n), key=nblocks.__getitem__, reverse=True)
    ascending = sorted(nblocks)
    max_blocks = nblocks[order[0]]
    # One row per lane: the IV, then the padded plaintext.
    width = 8 + max_blocks * 8
    buf = bytearray(n * width)
    for row, lane in enumerate(order):
        data = ivs[lane] + padded[lane]
        buf[row * width : row * width + len(data)] = data
    # Block-major (2, 1 + max_blocks, n): a step's lanes are contiguous.
    blocks = np.empty((max_blocks + 1, n), dtype=">u8")
    np.copyto(blocks, np.frombuffer(buf, dtype=">u8").reshape(n, max_blocks + 1).T)
    ip, fp = _permutations(max_blocks * n)
    permuted = np.empty((2, max_blocks + 1, n), dtype=_U8)
    ip(blocks.reshape(-1), permuted.reshape(2, -1))
    words = _lane_words([ciphers[lane] for lane in order], decrypt=False)
    # The IV row becomes a previous step's (Q_16, Q_15), and a plaintext
    # row XORed with one becomes a step's (Q_{-1}, Q_0).
    permuted[1] ^= words[17]
    permuted[1, 1:] ^= words[0]
    permuted[:, 0] ^= _TAG
    # Pre-FP states (Q_16, Q_15): the next step's chain value as is.
    out = np.empty((2, max_blocks, n), dtype=_U8)
    chain = permuted[:, 0]
    active = 0
    for block in range(max_blocks):
        m = n - bisect_right(ascending, block)
        if m != active:
            active = m
            lanes = _lanes(m)
            np.copyto(lanes.keys, words[1:17, :m])
        np.bitwise_xor(permuted[:, block + 1, :m], chain[:, :m], lanes.entry)
        _rounds(lanes.plan)
        chain = out[:, block, :m]
        np.copyto(chain, lanes.ends)
    out[1] ^= words[17]
    raw = fp(out.reshape(2, -1)).reshape(max_blocks, n).T.tobytes()
    width = max_blocks * 8
    results = [b""] * n
    for row, lane in enumerate(order):
        results[lane] = raw[row * width : row * width + nblocks[lane] * 8]
    return results


def cbc_decrypt_many(
    ciphers: Sequence[DES], ivs: Sequence[bytes], ciphertexts: Sequence[bytes]
) -> List[Optional[bytes]]:
    """CBC-decrypt and unpad independent lanes; ``None`` marks a bad lane.

    Decryption is chain-free (``P_i = D(C_i) ^ C_{i-1}``), so every
    block of every lane flattens into one kernel pass -- the parallel
    width is the *total block count*, not the lane count, which is what
    makes receive-side batching so much faster than send-side, and what
    makes a single long datagram worth a pass of its own.

    A lane that is not a whole number of blocks, or whose padding is
    corrupt after decryption, yields ``None`` -- exactly the lanes
    where scalar ``modes.decrypt`` raises ``ValueError``.
    """
    n = _check_lanes(ciphers, ivs, ciphertexts)
    results: List[Optional[bytes]] = [None] * n
    valid = [
        lane
        for lane in range(n)
        if ciphertexts[lane] and len(ciphertexts[lane]) % 8 == 0
    ]
    if not valid:
        return results
    counts = [len(ciphertexts[lane]) >> 3 for lane in valid]
    starts = []
    total = 0
    for count in counts:
        starts.append(total)
        total += count
    joined = np.frombuffer(
        b"".join(ciphertexts[lane] for lane in valid), dtype=np.uint8
    )
    words = _lane_words([ciphers[lane] for lane in valid], decrypt=True)
    if words.shape[1] > 1:
        words = np.repeat(words, counts, 1)
    plain = _pass(_lanes(total), words, joined.view(">u8"))
    # XOR is bytewise, so the chain words need no byte-order care.
    cipher_words = joined.view(_U8)
    previous = np.empty(total, dtype=_U8)
    previous[1:] = cipher_words[:-1]
    previous[np.array(starts, dtype=np.intp)] = np.frombuffer(
        b"".join(ivs[lane] for lane in valid), dtype=_U8
    )
    plain ^= previous
    raw = plain.tobytes()
    for position, lane in enumerate(valid):
        begin = starts[position] * 8
        segment = raw[begin : begin + counts[position] * 8]
        try:
            results[lane] = unpad_block(segment)
        except ValueError:
            results[lane] = None
    return results
