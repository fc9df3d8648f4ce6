"""Lane-parallel DES-CBC over numpy ``uint64`` arrays, four calls a round.

The scalar kernel (:mod:`repro.crypto.des`) runs one block through
sixteen table-lookup rounds; here the rounds run over *arrays* of
blocks.  At datagram-batch widths (tens of lanes) a pass costs its
number of numpy calls, not its data, so a round is four calls:

* **Windowed state.**  Each 32-bit half is kept rotated left by one
  (the libdes form), ``h``, in the low half of a ``<u8`` word, with
  ``rotr(h, 4)`` in the high half.  In ``h`` the E-windows of S-boxes
  1, 3, 5, 7 are the low six bits of bytes 3..0, in ``rotr(h, 4)``
  those of boxes 0, 2, 4, 6, so the word's eight bytes, read through a
  ``uint8`` view, are the eight windows with no shift.  The form is a
  bit permutation, linear over XOR: the tables are stored in it and
  the chaining below works in it unchanged.
* **Key byte and table offset in one XOR.**  A round's row holds
  ``k | j << 8`` for window byte ``j``, ``k`` the scalar schedule's key
  byte there (``DES.subkeys``, both directions as one ``uint16`` array
  in ``DES._vector``).  A window byte is below 256, so the XOR keys the
  window and adds its table's offset at once.
* **One gather for eight S-boxes.**  The indices reach eight stacked
  256-entry SP tables (pre-rotated, windowed, a byte's two stray high
  bits ignored by repetition) in one ``take``; the P-permuted outputs
  are disjoint, so one OR-reduce over the table axis is the round
  function, and one XOR puts it into the other half.
* **IP and FP as one gather each** on the block / state bytes, with the
  rotation, windowed form, half swap and big-endian store in the
  tables.

A call costs what its Python wrapper costs too, so every gather is the
table's bound ``take`` (``np.take`` is two Python-level wrappers on top),
and a round's rows are a list built once per width.

Two CBC drivers with different parallel axes:

* :func:`cbc_encrypt_many` chains within a lane, so it is lane-parallel
  and block-sequential: lanes sorted longest-first, each step running
  the still-active prefix.  IP and FP are hoisted out of the chain: IP
  is a bit permutation, so ``IP(P ^ C) = IP(P) ^ IP(C)``, and
  ``IP(FP(x)) = x``, so the chain value is the previous step's pre-FP
  state.  All plaintext blocks (and IVs) are permuted in one call, a
  step is rounds only, and FP runs once over all outputs.
* :func:`cbc_decrypt_many` has no chain (``P_i = D(C_i) ^ C_{i-1}``):
  every block of every lane flattens into one pass, the chain inputs
  being the ciphertext shifted by one block with the IVs scattered at
  lane starts.  One datagram is the one-lane case: its blocks are its
  lanes.

Outputs are bit-identical to :mod:`repro.crypto.modes` (the
differential reference).  The scratch cache is not thread-safe.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.crypto.des import _FP_LUT, _IP_LUT, _SP, DES
from repro.crypto.modes import pad_block, unpad_block

__all__ = ["cbc_decrypt_many", "cbc_encrypt_many"]

#: Little-endian on every host, so byte views index the same windows.
_U8 = np.dtype("<u8")
_LOW32 = np.uint64(0xFFFFFFFF)


def _windowed(words):
    """32-bit words in the state form: ``h`` low, ``rotr(h, 4)`` high.

    The form is a bit permutation of ``h``, so OR and XOR commute with
    it: tables stored in it combine into states in it, and CBC chains
    states in it.
    """
    rotated = ((words >> np.uint64(4)) | (words << np.uint64(28))) & _LOW32
    return (words | (rotated << np.uint64(32))).astype(_U8)


def _state_luts():
    """The scalar kernel's IP, SP and FP tables (already in the rotated
    form), put in the state form and laid out for one gather each.

    ``ip[half]`` maps ``256 * position + byte`` of a raw block to that
    byte's share of the state half; ``sp`` stacks the eight SP boxes in
    window-byte order (odd boxes 7..1 then even boxes 6..0); ``fp``
    maps ``256 * (4 * half + byte) + value`` of a (high, low) state to
    its share of the output block, stored so the array's bytes are the
    big-endian block.
    """
    ip = np.array(_IP_LUT, dtype=np.uint64)
    ip = np.stack(
        [_windowed(half).reshape(-1) for half in (ip >> np.uint64(32), ip & _LOW32)]
    )
    boxes = np.array(_SP, dtype=np.uint64)[[7, 5, 3, 1, 6, 4, 2, 0]]
    sp = _windowed(boxes[:, np.arange(256) & 63]).reshape(-1)
    # The scalar tables count a state's bytes from its high end, a
    # little-endian view of a half from its low end.
    fp = np.array(_FP_LUT, dtype=np.uint64)[[3, 2, 1, 0, 7, 6, 5, 4]]
    return ip, sp, fp.astype(">u8").view(_U8).reshape(-1)


_IP, _SPB, _FP = _state_luts()
_IP_OFFSETS = (256 * np.arange(8, dtype=np.intp)).reshape(8, 1)
#: Table offsets of the low four bytes of two state words.
_BYTE_OFFSETS = _IP_OFFSETS.reshape(2, 4, 1)
#: A round row's slot ids, above its key bytes.
_SLOTS = np.arange(8, dtype=np.uint16) << np.uint16(8)

#: Widths up to this keep their scratch; these are the widths where a
#: pass is call-bound, and the bound keeps the cache a few megabytes.
_CACHED_WIDTH = 256


class _Lanes:
    """Scratch buffers and the views a round reads, for one width."""

    __slots__ = ("state", "halves", "sources", "index", "index_rows", "parts", "f")

    def __init__(self, width: int) -> None:
        self.state = np.empty((2, width), dtype=_U8)
        # Round r XORs f(state[1 - r % 2]) into state[r % 2]: the
        # halves trade roles instead of places.  A source is the other
        # half's eight window bytes, ``(8, width)``.
        self.halves = (self.state[0], self.state[1])
        state_bytes = self.state.view(np.uint8).reshape(2, width, 8)
        self.sources = (state_bytes[1].T, state_bytes[0].T)
        self.index = np.empty((8, width), dtype=np.intp)
        self.index_rows = self.index.reshape(2, 4, width)
        self.parts = np.empty((8, width), dtype=_U8)
        self.f = np.empty(width, dtype=_U8)


_LANES: Dict[int, _Lanes] = {}


def _lanes(width: int) -> _Lanes:
    lanes = _LANES.get(width)
    if lanes is None:
        lanes = _Lanes(width)
        if width <= _CACHED_WIDTH:
            _LANES[width] = lanes
    return lanes


def _rounds(
    lanes: _Lanes,
    rows: List[np.ndarray],
    xor=np.bitwise_xor, take=_SPB.take, or_reduce=np.bitwise_or.reduce,
) -> None:  # fmt: skip
    """Sixteen DES rounds on ``lanes.state``, in place: four calls each.

    ``rows`` is the sixteen ``(8, m)`` round rows, ``m`` the width or
    1.  Sixteen is even, so the halves end in their own rows:
    ``state[0]`` is L16 and ``state[1]`` is R16.
    """
    sources = lanes.sources
    halves = lanes.halves
    index = lanes.index
    parts = lanes.parts
    f = lanes.f
    for rnd, row in enumerate(rows):
        # A window byte is below 256, so XOR with ``k | slot << 8`` keys
        # it and adds its table's offset at once.
        xor(sources[rnd & 1], row, index)
        # Every index is a byte plus a table offset, so in range: "clip"
        # only spares take the bounce buffer "raise" needs with out=.
        take(index, None, parts, "clip")
        or_reduce(parts, 0, None, f)
        target = halves[rnd & 1]
        xor(target, f, target)


def _initial(lanes: _Lanes, block_bytes) -> None:
    """IP of raw blocks, ``(width, 8)`` bytes, into ``lanes.state``."""
    np.add(block_bytes.T, _IP_OFFSETS, lanes.index)
    for table, half in zip(_IP, lanes.halves):
        table.take(lanes.index, None, lanes.parts, "clip")
        np.bitwise_or.reduce(lanes.parts, 0, None, half)


def _final(lanes: _Lanes, high_low) -> np.ndarray:
    """FP of ``(2, width)`` (R16, L16) states: blocks as ``<u8`` words
    whose bytes in memory are the big-endian block."""
    state_bytes = high_low.view(np.uint8).reshape(2, -1, 8)[:, :, :4]
    np.add(state_bytes.transpose(0, 2, 1), _BYTE_OFFSETS, lanes.index_rows)
    _FP.take(lanes.index, None, lanes.parts, "clip")
    return np.bitwise_or.reduce(lanes.parts, 0)


def _round_rows(cipher: DES) -> np.ndarray:
    """``(direction, round, slot)`` rows, cached on the cipher.

    Slot ``j`` is ``k | j << 8``, ``k`` the scalar schedule's key byte
    for window byte ``j``: bytes 0..3 of ``ka`` (k7, k5, k3, k1), then
    of ``kb`` (k6, k4, k2, k0).  Direction 1 is the reversed
    (decryption) schedule.
    """
    cached = cipher._vector
    if cached is None:
        key_bytes = np.array(
            [cipher.subkeys, cipher.subkeys_rev], dtype="<u4"
        ).view(np.uint8)
        cached = cipher._vector = key_bytes.astype(np.uint16) | _SLOTS
    return cached


def _mask_rows(ciphers: Sequence[DES], decrypt: bool, repeats=None) -> np.ndarray:
    """Round rows for a batch, ``(16, 8, m)``.

    ``ciphers`` is per lane; ``repeats`` optionally expands lanes to
    per-block columns (the flattened decrypt axis).  A single-key batch
    has ``m == 1`` and broadcasts against any width; slicing ``[:, :,
    :k]`` is valid for both.
    """
    index_of: Dict[int, int] = {}
    packed = []
    lane_index = []
    for cipher in ciphers:
        pos = index_of.get(id(cipher))
        if pos is None:
            pos = index_of[id(cipher)] = len(packed)
            packed.append(_round_rows(cipher)[int(decrypt)])
        lane_index.append(pos)
    if len(packed) == 1:
        return packed[0][:, :, None]
    index = np.array(lane_index, dtype=np.intp)
    if repeats is not None:
        index = np.repeat(index, repeats)
    return np.stack(packed, axis=2).take(index, 2)


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
    order = sorted(range(n), key=lambda lane: -nblocks[lane])
    ascending = sorted(nblocks)
    max_blocks = nblocks[order[0]]
    # One row per lane: the IV, then the padded plaintext.
    width = 8 + max_blocks * 8
    buf = bytearray(n * width)
    for row, lane in enumerate(order):
        data = ivs[lane] + padded[lane]
        buf[row * width : row * width + len(data)] = data
    # Block-major (2, 1 + max_blocks, n): a step's lanes are contiguous.
    # Its scratch is not from the cache, so no step's can alias it.
    whole = _Lanes((max_blocks + 1) * n)
    _initial(
        whole,
        np.frombuffer(buf, dtype=np.uint8)
        .reshape(n, max_blocks + 1, 8)
        .transpose(1, 0, 2)
        .reshape(-1, 8),
    )
    permuted = whole.state.reshape(2, max_blocks + 1, n)
    rows = _mask_rows([ciphers[lane] for lane in order], decrypt=False)
    # Pre-FP states as (R16, L16): the next step's chain value as is.
    out = np.empty((2, max_blocks, n), dtype=_U8)
    chain = permuted[:, 0]
    active = 0
    for block in range(max_blocks):
        m = n - bisect_right(ascending, block)
        if m != active:
            active = m
            lanes = _lanes(m)
            step_rows = list(rows[:, :, :m])
        np.bitwise_xor(permuted[:, block + 1, :m], chain[:, :m], lanes.state)
        _rounds(lanes, step_rows)
        chain = out[:, block, :m]
        np.copyto(chain, lanes.state[::-1])
    out = out.reshape(2, -1)
    raw = _final(_lanes(out.shape[1]), out).reshape(max_blocks, n).T.tobytes()
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
    lanes = _lanes(total)
    _initial(lanes, joined.reshape(total, 8))
    rows = _mask_rows([ciphers[lane] for lane in valid], decrypt=True, repeats=counts)
    _rounds(lanes, list(rows))
    plain = _final(lanes, lanes.state[::-1])
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
