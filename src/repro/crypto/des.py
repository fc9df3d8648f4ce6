"""The DES block cipher (FIPS 46): the datapath fast kernel.

The paper's IP mapping uses DES for data confidentiality ("we use DES for
encryption and MD5 for MAC computation", Section 7.2) via the CryptoLib
library.  CryptoLib got its speed from precomputation, and so does this
module: everything data-independent is folded into tables at import time,
everything key-dependent is folded into the key schedule once in
``__init__``, and the per-block path is table lookups on plain ints.

* **Rotated halves** -- both 32-bit halves are kept rotated left by one
  (the libdes form), with the rotation folded into the byte-indexed
  IP/FP tables (eight 256-entry lookups each; a bit permutation
  distributes over OR).  In ``rotl(R, 1)`` the E-expansion windows of
  S-boxes 1, 3, 5, 7 are the low six bits of the four bytes, and in
  that word rotated right by four boxes 0, 2, 4, 6 sit the same way,
  so E is one rotate.
* **Packed round keys** -- a round key is two byte-aligned 32-bit masks
  ``(ka, kb)`` with the 6-bit chunks where those windows are
  (:func:`_packed`), so two XORs key all eight boxes; the reversed
  (decryption) order is kept too.  The lane kernel
  (:mod:`repro.crypto.vector.des`) XORs the same masks as one
  ``ka | kb << 32`` word.
* **Paired SP-boxes** -- each 6-bit S-box input maps straight to its
  P-permuted (and rotated) round-function contribution, and the tables
  are combined two boxes at a time: masked with ``0x3F3F3F3F`` each
  keyed word is two 16-bit indices, so one round is four subscripts
  and about nineteen interpreter operations.

The per-bit specification implementation this kernel is differentially
tested against lives in :mod:`repro.crypto.des_reference` and is
re-exported here as ``reference`` (``from repro.crypto import des;
des.reference.DES``).  The FIPS tables themselves live in the reference
module -- single source of truth -- and are only consumed here at import
time to build the lookup tables.

Higher-level modes of operation (CBC and friends, padding) live in
:mod:`repro.crypto.modes`; they call ``_crypt`` against the cipher's
``subkeys``/``subkeys_rev`` to keep whole buffers in int space.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.crypto import des_reference as reference
from repro.crypto.des_reference import (
    FP as _FP,
    IP as _IP,
    P as _P,
    PC1 as _PC1,
    PC2 as _PC2,
    SBOXES as _SBOXES,
    SHIFTS as _SHIFTS,
    permute as _permute,
)
from repro.crypto.secret import Key, reveal

__all__ = ["DES", "BLOCK_SIZE", "reference"]

#: DES block size in bytes.
BLOCK_SIZE = 8


def _rotate_halves(value: int, left: int) -> int:
    """Rotate each 32-bit half of a 64-bit value left by ``left``."""
    high, low = value >> 32, value & 0xFFFFFFFF
    high = ((high << left) | (high >> (32 - left))) & 0xFFFFFFFF
    low = ((low << left) | (low >> (32 - left))) & 0xFFFFFFFF
    return high << 32 | low


def _or_table(bit_images: Sequence[int]) -> Tuple[int, ...]:
    """``table[v]``: the OR of ``bit_images[i]`` over the set bits of ``v``."""
    table = [0]
    for image in bit_images:
        table += [image | entry for entry in table]
    return tuple(table)


def _byte_luts(width: int, image: Callable[[int], int]) -> Tuple[Tuple[int, ...], ...]:
    """Per-input-byte lookup tables for a bit permutation, MSB byte first.

    A bit permutation distributes over OR, so permuting a ``width``-bit
    value equals OR-ing one precomputed table entry per input byte, and
    a table entry is the OR of its set bits' images: ``image`` walks the
    permutation once per input *bit*, not once per entry.
    """
    return tuple(
        _or_table([image(1 << bit) for bit in range(base, base + 8)])
        for base in range(width - 8, -1, -8)
    )


# IP leaves, and FP takes, both halves rotated left by one: the form the
# rounds keep them in (see _crypt).
_IP_LUT = _byte_luts(64, lambda v: _rotate_halves(_permute(v, 64, _IP), 1))
_FP_LUT = _byte_luts(64, lambda v: _permute(_rotate_halves(v, 31), 64, _FP))
_PC1_LUT = _byte_luts(64, lambda v: _permute(v, 64, _PC1))
# PC2 consumes a 56-bit quantity: pad to 56 bits (7 bytes).
_PC2_LUT = _byte_luts(56, lambda v: _permute(v, 56, _PC2))

# Combined SP-boxes: S-box output already run through the P permutation
# and rotated left by one like the half it is XORed into, so one lookup
# per 6-bit chunk replaces the per-round S + P work.
_SP = tuple(
    tuple(
        _rotate_halves(
            _permute(
                _SBOXES[box][((chunk >> 4) & 0b10) | (chunk & 1)][(chunk >> 1) & 0x0F]
                << (28 - 4 * box),
                32,
                _P,
            ),
            1,
        )
        for chunk in range(64)
    )
    for box in range(8)
)


def _paired(box_a: int, box_b: int) -> Tuple[int, ...]:
    """``_SP[box_a][i] | _SP[box_b][j]`` at index ``i << 8 | j``.

    Two S-boxes a subscript: the index is sixteen bits of a half masked
    with ``0x3F3F``, so 4,096 of the slots are live and the rest (``j``
    above 63) are padding no masked index reaches.
    """
    dead = [0] * 192
    table = []
    for a in _SP[box_a]:
        table += [a | b for b in _SP[box_b]]
        table += dead
    return tuple(table[: 0x3F3F + 1])


_SP13, _SP57 = _paired(1, 3), _paired(5, 7)
_SP02, _SP46 = _paired(0, 2), _paired(4, 6)


def _crypt(
    block: int,
    subkeys: Sequence[Tuple[int, int]],
    # The tables are bound as default arguments so every lookup in the
    # hot loop resolves as a local, not a module global.
    ip0=_IP_LUT[0], ip1=_IP_LUT[1], ip2=_IP_LUT[2], ip3=_IP_LUT[3],
    ip4=_IP_LUT[4], ip5=_IP_LUT[5], ip6=_IP_LUT[6], ip7=_IP_LUT[7],
    fp0=_FP_LUT[0], fp1=_FP_LUT[1], fp2=_FP_LUT[2], fp3=_FP_LUT[3],
    fp4=_FP_LUT[4], fp5=_FP_LUT[5], fp6=_FP_LUT[6], fp7=_FP_LUT[7],
    sp13=_SP13, sp57=_SP57, sp02=_SP02, sp46=_SP46,
) -> int:
    """One DES block in int space (the direction is set by ``subkeys``).

    ``subkeys`` is the key schedule as produced by :func:`_key_schedule`:
    sixteen ``(ka, kb)`` pairs of byte-aligned chunk masks.
    """
    t = (
        ip0[block >> 56]
        | ip1[(block >> 48) & 0xFF]
        | ip2[(block >> 40) & 0xFF]
        | ip3[(block >> 32) & 0xFF]
        | ip4[(block >> 24) & 0xFF]
        | ip5[(block >> 16) & 0xFF]
        | ip6[(block >> 8) & 0xFF]
        | ip7[block & 0xFF]
    )
    left = t >> 32
    right = t & 0xFFFFFFFF
    for ka, kb in subkeys:
        # In rotl(R, 1) the E windows of S-boxes 1, 3, 5, 7 are the low
        # six bits of bytes 3..0, and in that word rotated right by four
        # the windows of boxes 0, 2, 4, 6 sit the same way; the mask
        # drops each byte's two stray bits and the rotate's overflow.
        odd = (right ^ ka) & 0x3F3F3F3F
        even = ((right >> 4 | right << 28) ^ kb) & 0x3F3F3F3F
        left, right = right, left ^ (
            sp13[odd >> 16] | sp57[odd & 0xFFFF]
            | sp02[even >> 16] | sp46[even & 0xFFFF]
        )
    # Final swap then inverse initial permutation.
    t = (right << 32) | left
    return (
        fp0[t >> 56]
        | fp1[(t >> 48) & 0xFF]
        | fp2[(t >> 40) & 0xFF]
        | fp3[(t >> 32) & 0xFF]
        | fp4[(t >> 24) & 0xFF]
        | fp5[(t >> 16) & 0xFF]
        | fp6[(t >> 8) & 0xFF]
        | fp7[t & 0xFF]
    )


def _apply_luts(value: int, width: int, luts: Tuple[Tuple[int, ...], ...]) -> int:
    out = 0
    for byte_index, lut in enumerate(luts):
        out |= lut[(value >> (width - 8 * (byte_index + 1))) & 0xFF]
    return out


def _packed(k48: int) -> int:
    """A 48-bit round key as ``ka << 32 | kb``, its 6-bit chunks
    ``k0..k7`` byte-aligned where the round reads them: ``ka`` is
    ``k7 | k5 << 8 | k3 << 16 | k1 << 24`` (XORed into ``rotl(R, 1)``),
    ``kb`` is ``k6 | k4 << 8 | k2 << 16 | k0 << 24`` (into that word
    rotated right by four).  The lane kernel reads the same two masks.
    """
    k0, k1, k2, k3, k4, k5, k6, k7 = [(k48 >> s) & 0x3F for s in range(42, -1, -6)]
    ka = k7 | k5 << 8 | k3 << 16 | k1 << 24
    kb = k6 | k4 << 8 | k2 << 16 | k0 << 24
    return ka << 32 | kb


def _round_key_luts() -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Per-round window tables with rotation, PC2 *and* packing folded in.

    The schedule's per-round work is ``rotate(C, t); rotate(D, t);
    PC2(C|D)``, then :func:`_packed`.  All are bit permutations, so they
    compose: bit ``i`` of the unrotated C half lands at position
    ``(i + t) % 28`` after the round's cumulative left-rotation ``t``,
    and its packed PC2 image from there is a fixed 64-bit mask.  Folding
    that composition into tables indexed by 7-bit windows of the
    *unrotated* halves turns the whole round into eight lookups and
    seven ORs -- no rotates, no 56-bit re-packing, no chunk shuffling.

    Layout: sixteen rounds x eight tables (windows of C at bit offsets
    21/14/7/0, then the same four windows of D) x 128 entries.
    """
    # Packed PC2 image of each single bit of the (rotated) C and D halves.
    c_bit = [_packed(_apply_luts((1 << i) << 28, 56, _PC2_LUT)) for i in range(28)]
    d_bit = [_packed(_apply_luts(1 << i, 56, _PC2_LUT)) for i in range(28)]
    rounds = []
    total = 0
    for shift in _SHIFTS:
        total += shift
        tables = []
        for half_bits in (c_bit, d_bit):
            for base in (21, 14, 7, 0):
                tables.append(
                    _or_table([half_bits[(base + bit + total) % 28] for bit in range(7)])
                )
        rounds.append(tuple(tables))
    return tuple(rounds)


_ROUND_KEY_LUTS = _round_key_luts()


def _key_schedule(key: int) -> Tuple[Tuple[int, int], ...]:
    """The sixteen round keys as ``(ka, kb)`` mask pairs (:func:`_packed`).

    They come from :data:`_ROUND_KEY_LUTS`, which bakes the per-round
    rotation, PC2 and the packing into window lookups on the PC1 output.
    """
    permuted = _apply_luts(key, 64, _PC1_LUT)
    c = (permuted >> 28) & 0x0FFFFFFF
    d = permuted & 0x0FFFFFFF
    c0, c1, c2, c3 = c >> 21, (c >> 14) & 127, (c >> 7) & 127, c & 127
    d0, d1, d2, d3 = d >> 21, (d >> 14) & 127, (d >> 7) & 127, d & 127
    rounds = []
    for cw0, cw1, cw2, cw3, dw0, dw1, dw2, dw3 in _ROUND_KEY_LUTS:
        packed = (
            cw0[c0] | cw1[c1] | cw2[c2] | cw3[c3]
            | dw0[d0] | dw1[d1] | dw2[d2] | dw3[d3]
        )
        rounds.append((packed >> 32, packed & 0xFFFFFFFF))
    return tuple(rounds)


class DES:
    """DES with a fixed key, exposing single-block encrypt/decrypt.

    Parameters
    ----------
    key:
        8-byte key.  Parity bits (the least significant bit of each byte)
        are ignored, per FIPS 46.

    The key schedule -- including the reversed decryption order -- is
    computed exactly once here; per-block work is pure table lookups.
    ``schedule_builds`` counts schedule constructions process-wide so
    tests and benches can assert that cache-hit datapaths build zero
    schedules (the Figure 6 fast-path contract).

    Higher-level modes of operation (CBC and friends, padding) live in
    :mod:`repro.crypto.modes`.
    """

    __slots__ = ("subkeys", "subkeys_rev", "_vector")

    #: Process-wide count of key-schedule constructions (one per DES()).
    schedule_builds = 0

    def __init__(self, key: Key) -> None:
        key = reveal(key)
        if len(key) != BLOCK_SIZE:
            raise ValueError(f"DES key must be 8 bytes, got {len(key)}")
        DES.schedule_builds += 1
        #: The encryption schedule: what :func:`_crypt` consumes.  The
        #: mode layer (:mod:`repro.crypto.modes`) reads these directly to
        #: drive ``_crypt`` without per-block method dispatch.
        self.subkeys = _key_schedule(int.from_bytes(key, "big"))
        self.subkeys_rev = self.subkeys[::-1]
        # Both directions' lane key words (K_0, the round-key
        # differences, K_15), which repro.crypto.vector.des builds and
        # caches here (None until a lane pass touches this key).
        self._vector = None

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"DES block must be 8 bytes, got {len(block)}")
        value = _crypt(int.from_bytes(block, "big"), self.subkeys)
        return value.to_bytes(BLOCK_SIZE, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"DES block must be 8 bytes, got {len(block)}")
        value = _crypt(int.from_bytes(block, "big"), self.subkeys_rev)
        return value.to_bytes(BLOCK_SIZE, "big")
