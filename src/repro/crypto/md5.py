"""MD5 message digest (RFC 1321), implemented from scratch.

MD5 is the paper's choice both for the flow-key derivation hash ``H`` and
for the keyed MAC ("keyed MD5 is used to compute the MAC", Section 7.2).
The streaming ``update``/``digest`` interface is the shared
:class:`repro.crypto._md.MerkleDamgard` driver; correctness is checked
against the RFC 1321 test suite and against :mod:`hashlib` by the tests.

Because every protected datagram pays one MD5 pass over its body, the
compress function is the datapath's single hottest loop and is written
for CPython speed (about x1.6 over the four-loop form, on the path
every budget workload runs; EXPERIMENTS.md "Lane crossovers by stage"):

* the 64 steps are fully unrolled into the four explicit 16-step rounds
  of RFC 1321, with the sine constants inlined and the rotates expressed
  as shift/or on locals (no helper calls, no per-step table indexing);
* the round functions use the 3-op forms ``F = d ^ (b & (c ^ d))`` and
  ``G = c ^ (d & (b ^ c))`` instead of the 4-op textbook forms.
"""

from __future__ import annotations

import struct

from repro.crypto._md import MerkleDamgard

__all__ = ["MD5", "md5", "DIGEST_SIZE"]

#: MD5 digest size in bytes (the paper's 128-bit MAC field).
DIGEST_SIZE = 16

_WORDS16 = struct.Struct("<16I")


def _compress(state, block, offset=0):
    """Fold one 64-byte block at ``offset`` into ``state`` (a 4-tuple)."""
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = (
        _WORDS16.unpack_from(block, offset)
    )
    a0, b0, c0, d0 = state
    a = a0
    b = b0
    c = c0
    d = d0
    # Round 1.
    t = (a + (d ^ (b & (c ^ d))) + 0xD76AA478 + x0) & 0xFFFFFFFF
    a = b + ((t << 7) | (t >> 25))
    t = (d + (c ^ (a & (b ^ c))) + 0xE8C7B756 + x1) & 0xFFFFFFFF
    d = a + ((t << 12) | (t >> 20))
    t = (c + (b ^ (d & (a ^ b))) + 0x242070DB + x2) & 0xFFFFFFFF
    c = d + ((t << 17) | (t >> 15))
    t = (b + (a ^ (c & (d ^ a))) + 0xC1BDCEEE + x3) & 0xFFFFFFFF
    b = c + ((t << 22) | (t >> 10))
    t = (a + (d ^ (b & (c ^ d))) + 0xF57C0FAF + x4) & 0xFFFFFFFF
    a = b + ((t << 7) | (t >> 25))
    t = (d + (c ^ (a & (b ^ c))) + 0x4787C62A + x5) & 0xFFFFFFFF
    d = a + ((t << 12) | (t >> 20))
    t = (c + (b ^ (d & (a ^ b))) + 0xA8304613 + x6) & 0xFFFFFFFF
    c = d + ((t << 17) | (t >> 15))
    t = (b + (a ^ (c & (d ^ a))) + 0xFD469501 + x7) & 0xFFFFFFFF
    b = c + ((t << 22) | (t >> 10))
    t = (a + (d ^ (b & (c ^ d))) + 0x698098D8 + x8) & 0xFFFFFFFF
    a = b + ((t << 7) | (t >> 25))
    t = (d + (c ^ (a & (b ^ c))) + 0x8B44F7AF + x9) & 0xFFFFFFFF
    d = a + ((t << 12) | (t >> 20))
    t = (c + (b ^ (d & (a ^ b))) + 0xFFFF5BB1 + x10) & 0xFFFFFFFF
    c = d + ((t << 17) | (t >> 15))
    t = (b + (a ^ (c & (d ^ a))) + 0x895CD7BE + x11) & 0xFFFFFFFF
    b = c + ((t << 22) | (t >> 10))
    t = (a + (d ^ (b & (c ^ d))) + 0x6B901122 + x12) & 0xFFFFFFFF
    a = b + ((t << 7) | (t >> 25))
    t = (d + (c ^ (a & (b ^ c))) + 0xFD987193 + x13) & 0xFFFFFFFF
    d = a + ((t << 12) | (t >> 20))
    t = (c + (b ^ (d & (a ^ b))) + 0xA679438E + x14) & 0xFFFFFFFF
    c = d + ((t << 17) | (t >> 15))
    t = (b + (a ^ (c & (d ^ a))) + 0x49B40821 + x15) & 0xFFFFFFFF
    b = c + ((t << 22) | (t >> 10))
    # Round 2.
    t = (a + (c ^ (d & (b ^ c))) + 0xF61E2562 + x1) & 0xFFFFFFFF
    a = b + ((t << 5) | (t >> 27))
    t = (d + (b ^ (c & (a ^ b))) + 0xC040B340 + x6) & 0xFFFFFFFF
    d = a + ((t << 9) | (t >> 23))
    t = (c + (a ^ (b & (d ^ a))) + 0x265E5A51 + x11) & 0xFFFFFFFF
    c = d + ((t << 14) | (t >> 18))
    t = (b + (d ^ (a & (c ^ d))) + 0xE9B6C7AA + x0) & 0xFFFFFFFF
    b = c + ((t << 20) | (t >> 12))
    t = (a + (c ^ (d & (b ^ c))) + 0xD62F105D + x5) & 0xFFFFFFFF
    a = b + ((t << 5) | (t >> 27))
    t = (d + (b ^ (c & (a ^ b))) + 0x02441453 + x10) & 0xFFFFFFFF
    d = a + ((t << 9) | (t >> 23))
    t = (c + (a ^ (b & (d ^ a))) + 0xD8A1E681 + x15) & 0xFFFFFFFF
    c = d + ((t << 14) | (t >> 18))
    t = (b + (d ^ (a & (c ^ d))) + 0xE7D3FBC8 + x4) & 0xFFFFFFFF
    b = c + ((t << 20) | (t >> 12))
    t = (a + (c ^ (d & (b ^ c))) + 0x21E1CDE6 + x9) & 0xFFFFFFFF
    a = b + ((t << 5) | (t >> 27))
    t = (d + (b ^ (c & (a ^ b))) + 0xC33707D6 + x14) & 0xFFFFFFFF
    d = a + ((t << 9) | (t >> 23))
    t = (c + (a ^ (b & (d ^ a))) + 0xF4D50D87 + x3) & 0xFFFFFFFF
    c = d + ((t << 14) | (t >> 18))
    t = (b + (d ^ (a & (c ^ d))) + 0x455A14ED + x8) & 0xFFFFFFFF
    b = c + ((t << 20) | (t >> 12))
    t = (a + (c ^ (d & (b ^ c))) + 0xA9E3E905 + x13) & 0xFFFFFFFF
    a = b + ((t << 5) | (t >> 27))
    t = (d + (b ^ (c & (a ^ b))) + 0xFCEFA3F8 + x2) & 0xFFFFFFFF
    d = a + ((t << 9) | (t >> 23))
    t = (c + (a ^ (b & (d ^ a))) + 0x676F02D9 + x7) & 0xFFFFFFFF
    c = d + ((t << 14) | (t >> 18))
    t = (b + (d ^ (a & (c ^ d))) + 0x8D2A4C8A + x12) & 0xFFFFFFFF
    b = c + ((t << 20) | (t >> 12))
    # Round 3.
    t = (a + (b ^ c ^ d) + 0xFFFA3942 + x5) & 0xFFFFFFFF
    a = b + ((t << 4) | (t >> 28))
    t = (d + (a ^ b ^ c) + 0x8771F681 + x8) & 0xFFFFFFFF
    d = a + ((t << 11) | (t >> 21))
    t = (c + (d ^ a ^ b) + 0x6D9D6122 + x11) & 0xFFFFFFFF
    c = d + ((t << 16) | (t >> 16))
    t = (b + (c ^ d ^ a) + 0xFDE5380C + x14) & 0xFFFFFFFF
    b = c + ((t << 23) | (t >> 9))
    t = (a + (b ^ c ^ d) + 0xA4BEEA44 + x1) & 0xFFFFFFFF
    a = b + ((t << 4) | (t >> 28))
    t = (d + (a ^ b ^ c) + 0x4BDECFA9 + x4) & 0xFFFFFFFF
    d = a + ((t << 11) | (t >> 21))
    t = (c + (d ^ a ^ b) + 0xF6BB4B60 + x7) & 0xFFFFFFFF
    c = d + ((t << 16) | (t >> 16))
    t = (b + (c ^ d ^ a) + 0xBEBFBC70 + x10) & 0xFFFFFFFF
    b = c + ((t << 23) | (t >> 9))
    t = (a + (b ^ c ^ d) + 0x289B7EC6 + x13) & 0xFFFFFFFF
    a = b + ((t << 4) | (t >> 28))
    t = (d + (a ^ b ^ c) + 0xEAA127FA + x0) & 0xFFFFFFFF
    d = a + ((t << 11) | (t >> 21))
    t = (c + (d ^ a ^ b) + 0xD4EF3085 + x3) & 0xFFFFFFFF
    c = d + ((t << 16) | (t >> 16))
    t = (b + (c ^ d ^ a) + 0x04881D05 + x6) & 0xFFFFFFFF
    b = c + ((t << 23) | (t >> 9))
    t = (a + (b ^ c ^ d) + 0xD9D4D039 + x9) & 0xFFFFFFFF
    a = b + ((t << 4) | (t >> 28))
    t = (d + (a ^ b ^ c) + 0xE6DB99E5 + x12) & 0xFFFFFFFF
    d = a + ((t << 11) | (t >> 21))
    t = (c + (d ^ a ^ b) + 0x1FA27CF8 + x15) & 0xFFFFFFFF
    c = d + ((t << 16) | (t >> 16))
    t = (b + (c ^ d ^ a) + 0xC4AC5665 + x2) & 0xFFFFFFFF
    b = c + ((t << 23) | (t >> 9))
    # Round 4.
    t = (a + (c ^ (b | (d ^ 0xFFFFFFFF))) + 0xF4292244 + x0) & 0xFFFFFFFF
    a = b + ((t << 6) | (t >> 26))
    t = (d + (b ^ (a | (c ^ 0xFFFFFFFF))) + 0x432AFF97 + x7) & 0xFFFFFFFF
    d = a + ((t << 10) | (t >> 22))
    t = (c + (a ^ (d | (b ^ 0xFFFFFFFF))) + 0xAB9423A7 + x14) & 0xFFFFFFFF
    c = d + ((t << 15) | (t >> 17))
    t = (b + (d ^ (c | (a ^ 0xFFFFFFFF))) + 0xFC93A039 + x5) & 0xFFFFFFFF
    b = c + ((t << 21) | (t >> 11))
    t = (a + (c ^ (b | (d ^ 0xFFFFFFFF))) + 0x655B59C3 + x12) & 0xFFFFFFFF
    a = b + ((t << 6) | (t >> 26))
    t = (d + (b ^ (a | (c ^ 0xFFFFFFFF))) + 0x8F0CCC92 + x3) & 0xFFFFFFFF
    d = a + ((t << 10) | (t >> 22))
    t = (c + (a ^ (d | (b ^ 0xFFFFFFFF))) + 0xFFEFF47D + x10) & 0xFFFFFFFF
    c = d + ((t << 15) | (t >> 17))
    t = (b + (d ^ (c | (a ^ 0xFFFFFFFF))) + 0x85845DD1 + x1) & 0xFFFFFFFF
    b = c + ((t << 21) | (t >> 11))
    t = (a + (c ^ (b | (d ^ 0xFFFFFFFF))) + 0x6FA87E4F + x8) & 0xFFFFFFFF
    a = b + ((t << 6) | (t >> 26))
    t = (d + (b ^ (a | (c ^ 0xFFFFFFFF))) + 0xFE2CE6E0 + x15) & 0xFFFFFFFF
    d = a + ((t << 10) | (t >> 22))
    t = (c + (a ^ (d | (b ^ 0xFFFFFFFF))) + 0xA3014314 + x6) & 0xFFFFFFFF
    c = d + ((t << 15) | (t >> 17))
    t = (b + (d ^ (c | (a ^ 0xFFFFFFFF))) + 0x4E0811A1 + x13) & 0xFFFFFFFF
    b = c + ((t << 21) | (t >> 11))
    t = (a + (c ^ (b | (d ^ 0xFFFFFFFF))) + 0xF7537E82 + x4) & 0xFFFFFFFF
    a = b + ((t << 6) | (t >> 26))
    t = (d + (b ^ (a | (c ^ 0xFFFFFFFF))) + 0xBD3AF235 + x11) & 0xFFFFFFFF
    d = a + ((t << 10) | (t >> 22))
    t = (c + (a ^ (d | (b ^ 0xFFFFFFFF))) + 0x2AD7D2BB + x2) & 0xFFFFFFFF
    c = d + ((t << 15) | (t >> 17))
    t = (b + (d ^ (c | (a ^ 0xFFFFFFFF))) + 0xEB86D391 + x9) & 0xFFFFFFFF
    b = c + ((t << 21) | (t >> 11))
    return (
        (a0 + a) & 0xFFFFFFFF,
        (b0 + b) & 0xFFFFFFFF,
        (c0 + c) & 0xFFFFFFFF,
        (d0 + d) & 0xFFFFFFFF,
    )


class MD5(MerkleDamgard):
    """Incremental MD5, mirroring the ``hashlib`` object protocol."""

    __slots__ = ()
    name = "md5"
    digest_size = DIGEST_SIZE
    _compress = staticmethod(_compress)
    _initial = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    _state_words = struct.Struct("<4I")
    _length_word = struct.Struct("<Q")


def md5(data: bytes) -> bytes:
    """One-shot MD5 digest of ``data``."""
    return MD5(data).digest()
