"""Lane-parallel MD5 / keyed MD5 over packed Python ints.

One *lane* per message: a batch of N datagrams runs the 64 MD5 steps
once over all N lanes, so the Python cost of a step is paid once per
batch instead of once per message.  At datagram-batch widths that cost
is the number of operations, not their data, and a Python int is the
widest register an operation can take (EXPERIMENTS.md "Lanes priced by
the call"):

* **Packed lanes.**  Lane *i* sits in bits ``[64i, 64i + 32)`` of each
  of four ints (SIMD within a register); the upper 32 bits of a slot
  are guard bits.  One 4,096-bit XOR (64 lanes) costs ~0.07 us against
  ~0.75 us for a 64-element numpy call.  ``M`` is ``0xFFFFFFFF`` once a
  slot and every step constant is repeated the same way, both built
  once per batch width.  A step is ``t = ((a + F + K + X) & M) << s``
  then ``a = b + ((t | t >> 32) & M)``, with the scalar kernel's 3-op
  ``F`` forms and ``~d`` as ``d ^ M``: masked before the rotate and at
  the block end only.  A register gains less than 2**32 a step, so
  inside a block every slot stays below 2**41 and no carry reaches the
  next lane.
* **Fully unrolled compress.**  The 64 steps are generated as straight-
  line source and compiled once, at import (:func:`_build_compress`); each
  step is a fixed sequence of operations with no Python-level table
  walk.
* **Ragged batches: march to the longest lane.**  Lanes are sorted by
  padded block count (longest first); each block step processes the
  still-active prefix, which is the low slots, so a shorter batch works
  on a shorter int and finished lanes freeze in place.

numpy does the one transpose of the padded lanes into message words and
the final view of the registers as digests.  Outputs are bit-identical
to :mod:`repro.crypto.md5` (the differential reference); the property
suite pins the equivalence over random batch shapes and lengths.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = ["keyed_md5_many"]

_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)

#: RFC 1321 sine-derived additive constants.
_K = tuple(
    int(abs(math.sin(i + 1)) * 4294967296.0) & 0xFFFFFFFF for i in range(64)
)

#: Per-round rotation amounts (cycle of four within each round).
_SHIFTS = (
    (7, 12, 17, 22),
    (5, 9, 14, 20),
    (4, 11, 16, 23),
    (6, 10, 15, 21),
)

_LENGTH8 = struct.Struct("<Q")


def _message_index(step: int) -> int:
    """Which of the 16 message words step ``step`` consumes (RFC 1321)."""
    position = step % 16
    round_no = step // 16
    if round_no == 0:
        return position
    if round_no == 1:
        return (1 + 5 * position) % 16
    if round_no == 2:
        return (5 + 3 * position) % 16
    return (7 * position) % 16


def _packed_source() -> str:
    """The unrolled 64-step compress over packed-int lanes."""
    lines = [
        "def _compress_packed(A, B, C, D, M, K, X):",
        '    """Sixty-four unrolled MD5 steps over packed lanes; the new state."""',
        "    a, b, c, d = A, B, C, D",
        "    " + ", ".join(f"x{k}" for k in range(16)) + " = X",
    ]
    registers = ["a", "b", "c", "d"]
    for step in range(64):
        a, b, c, d = registers
        round_no = step // 16
        if round_no == 0:
            f = f"{d} ^ ({b} & ({c} ^ {d}))"
        elif round_no == 1:
            f = f"{c} ^ ({d} & ({b} ^ {c}))"
        elif round_no == 2:
            f = f"{b} ^ {c} ^ {d}"
        else:  # ~d within each slot's low 32 bits
            f = f"{c} ^ ({b} | ({d} ^ M))"
        shift = _SHIFTS[round_no][step % 4]
        lines += [
            f"    t = (({a} + ({f}) + K[{step}] + x{_message_index(step)}) & M)"
            f" << {shift}",
            f"    {a} = {b} + ((t | (t >> 32)) & M)",
        ]
        registers = [d, a, b, c]
    lines.append("    return (A + a) & M, (B + b) & M, (C + c) & M, (D + d) & M")
    return "\n".join(lines)


def _build_compress() -> Callable:
    namespace: dict = {}
    exec(  # one compile at import; the source is fixed straight-line code
        compile(_packed_source(), "<repro.crypto.vector.md5>", "exec"), namespace
    )
    return namespace["_compress_packed"]


_compress_packed = _build_compress()


@lru_cache(maxsize=64)
def _packed_constants(width: int) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """``(M, K, initial state)`` with each 32-bit value repeated in
    ``width`` 64-bit slots."""
    ones = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * width, "little")
    return (
        0xFFFFFFFF * ones,
        tuple(k * ones for k in _K),
        tuple(word * ones for word in _INIT),
    )


def _packed_lanes(n: int, ascending: List[int], max_blocks: int, buf) -> bytes:
    """Digests of the padded rows in ``buf``, row order, as packed ints."""
    row = 8 * n  # one message word of every lane
    # (block, word, lane) as zero-extended <u8: a word of the first m
    # lanes is 8 * m contiguous bytes, one from_bytes each.
    words = (
        np.frombuffer(buf, dtype="<u4")
        .reshape(n, max_blocks, 16)
        .transpose(1, 2, 0)
        .astype("<u8")
        .tobytes()
    )
    width = n
    mask, steps, state = _packed_constants(n)
    frozen = (0, 0, 0, 0)
    for block in range(max_blocks):
        m = n - bisect_right(ascending, block)
        if m != width:
            # The lanes in slots m.. are done: park them, go narrower.
            low = (1 << 64 * m) - 1
            frozen = tuple(f | (s & ~low) for f, s in zip(frozen, state))
            state = tuple(s & low for s in state)
            width = m
            mask, steps, _ = _packed_constants(m)
        base = block * 16 * row
        size = 8 * m
        state = _compress_packed(
            *state,
            mask,
            steps,
            [
                int.from_bytes(words[at : at + size], "little")
                for at in range(base, base + 16 * row, row)
            ],
        )
    registers = b"".join(
        (f | s).to_bytes(row, "little") for f, s in zip(frozen, state)
    )
    return np.frombuffer(registers, dtype="<u4").reshape(4, n, 2)[:, :, 0].T.tobytes()


def _digest_lanes(payloads: Sequence[bytes]) -> List[bytes]:
    """MD5 of every payload, lanes in parallel; original order preserved."""
    n = len(payloads)
    nblocks = [(len(payload) + 9 + 63) >> 6 for payload in payloads]
    # Longest lanes first (stable, so equal lengths keep batch order):
    # the active set at every block step is then a prefix.
    order = sorted(range(n), key=lambda lane: -nblocks[lane])
    ascending = sorted(nblocks)
    max_blocks = nblocks[order[0]]
    width = max_blocks * 64
    buf = bytearray(n * width)
    for row, lane in enumerate(order):
        payload = payloads[lane]
        size = len(payload)
        offset = row * width
        buf[offset : offset + size] = payload
        buf[offset + size] = 0x80
        end = offset + nblocks[lane] * 64
        buf[end - 8 : end] = _LENGTH8.pack((size << 3) & 0xFFFFFFFFFFFFFFFF)
    raw = _packed_lanes(n, ascending, max_blocks, buf)
    out: List[bytes] = [b""] * n
    for row, lane in enumerate(order):
        out[lane] = raw[row * 16 : row * 16 + 16]
    return out


def keyed_md5_many(keys: Sequence[bytes], messages: Sequence[bytes]) -> List[bytes]:
    """Prefix-keyed MD5 per lane: ``MD5(key | message)``.

    Bit-identical to :func:`repro.crypto.mac.keyed_md5` (and therefore
    to ``FlowCryptoState.mac`` before truncation -- truncating to the
    suite's MAC width is the caller's job, as in the scalar path).
    """
    if len(keys) != len(messages):
        raise ValueError("keys must be parallel to messages")
    if not messages:
        return []
    return _digest_lanes(
        [keys[i] + messages[i] for i in range(len(messages))]
    )
