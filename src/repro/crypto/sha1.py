"""SHA-1 / Secure Hash Standard (FIPS 180), implemented from scratch.

The paper names SHS as an alternative candidate for the hash function
``H`` used in flow-key derivation (Section 5.2) and notes that it
"produces 160-bit hashes" (Section 5.3).  Correctness is checked against
FIPS vectors and :mod:`hashlib` by the tests.

The compress function is the FIPS 180 loop as the standard writes it: an
80-word message schedule, then four 20-step rounds.  No budget workload
runs SHS, so unlike :mod:`repro.crypto.md5` it is not unrolled (an
unroll buys about x1.3 on a path nothing pays for; EXPERIMENTS.md "Lane
crossovers by stage").  The streaming ``update``/``digest`` interface
is the shared :class:`repro.crypto._md.MerkleDamgard` driver.
"""

from __future__ import annotations

import struct

from repro.crypto._md import MerkleDamgard

__all__ = ["SHA1", "sha1", "DIGEST_SIZE"]

#: SHA-1 digest size in bytes (160 bits).
DIGEST_SIZE = 20

_WORDS16 = struct.Struct(">16I")


def _compress(state, block, offset=0):
    """Fold one 64-byte block at ``offset`` into ``state`` (a 5-tuple)."""
    w = list(_WORDS16.unpack_from(block, offset))
    for i in range(16, 80):
        t = w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]
        w.append(((t << 1) | (t >> 31)) & 0xFFFFFFFF)
    a, b, c, d, e = state
    for i in range(20):
        t = ((a << 5) | (a >> 27)) + (d ^ (b & (c ^ d))) + e + 0x5A827999 + w[i]
        a, b, c, d, e = t & 0xFFFFFFFF, a, ((b << 30) | (b >> 2)) & 0xFFFFFFFF, c, d
    for i in range(20, 40):
        t = ((a << 5) | (a >> 27)) + (b ^ c ^ d) + e + 0x6ED9EBA1 + w[i]
        a, b, c, d, e = t & 0xFFFFFFFF, a, ((b << 30) | (b >> 2)) & 0xFFFFFFFF, c, d
    for i in range(40, 60):
        t = ((a << 5) | (a >> 27)) + ((b & c) | (d & (b | c))) + e + 0x8F1BBCDC + w[i]
        a, b, c, d, e = t & 0xFFFFFFFF, a, ((b << 30) | (b >> 2)) & 0xFFFFFFFF, c, d
    for i in range(60, 80):
        t = ((a << 5) | (a >> 27)) + (b ^ c ^ d) + e + 0xCA62C1D6 + w[i]
        a, b, c, d, e = t & 0xFFFFFFFF, a, ((b << 30) | (b >> 2)) & 0xFFFFFFFF, c, d
    h0, h1, h2, h3, h4 = state
    return (
        (h0 + a) & 0xFFFFFFFF,
        (h1 + b) & 0xFFFFFFFF,
        (h2 + c) & 0xFFFFFFFF,
        (h3 + d) & 0xFFFFFFFF,
        (h4 + e) & 0xFFFFFFFF,
    )


class SHA1(MerkleDamgard):
    """Incremental SHA-1, mirroring the ``hashlib`` object protocol."""

    __slots__ = ()
    name = "sha1"
    digest_size = DIGEST_SIZE
    _compress = staticmethod(_compress)
    _initial = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
    _state_words = struct.Struct(">5I")
    _length_word = struct.Struct(">Q")


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest of ``data``."""
    return SHA1(data).digest()
