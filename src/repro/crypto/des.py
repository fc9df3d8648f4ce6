"""The DES block cipher (FIPS 46): the datapath fast kernel.

The paper's IP mapping uses DES for data confidentiality ("we use DES for
encryption and MD5 for MAC computation", Section 7.2) via the CryptoLib
library.  CryptoLib got its speed from precomputation, and so does this
module: everything data-independent is folded into tables at import time,
everything key-dependent is folded into the key schedule once in
``__init__``, and the per-block path is table lookups on plain ints.

* **Combined SP-boxes** -- each 6-bit S-box input maps straight to the
  P-permuted 32-bit round-function contribution, so one round is eight
  lookup/XOR/OR steps with no bit walking.
* **Byte-indexed IP/FP tables** -- the initial and final permutations
  are each eight 256-entry lookups (bit permutations distribute over OR).
* **Folded E expansion** -- the expansion's eight overlapping 6-bit
  windows are read directly off a 34-bit widening of the right half
  (``R`` with its edge bits wrapped around), so E costs three shifts per
  round instead of a table application.
* **Subkeys as 6-bit chunks** -- the key schedule stores each 48-bit
  round key pre-split into the eight chunks the SP lookups consume, and
  keeps the reversed (decryption) order too, so ``decrypt_block`` never
  re-materializes the schedule.

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

from typing import Sequence, Tuple

from repro.crypto import des_reference as reference
from repro.crypto.des_reference import (
    E as _E,
    FP as _FP,
    IP as _IP,
    P as _P,
    PC1 as _PC1,
    PC2 as _PC2,
    SBOXES as _SBOXES,
    SHIFTS as _SHIFTS,
    permute as _permute,
)

__all__ = ["DES", "BLOCK_SIZE", "reference"]

#: DES block size in bytes.
BLOCK_SIZE = 8


def _byte_luts(width: int, table: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Per-input-byte lookup tables for a bit permutation.

    A bit permutation distributes over OR, so permuting a ``width``-bit
    value equals OR-ing one precomputed table entry per input byte.
    """
    luts = []
    for byte_index in range(width // 8):
        shift = width - 8 * (byte_index + 1)
        luts.append(
            tuple(
                _permute(byte_value << shift, width, table)
                for byte_value in range(256)
            )
        )
    return tuple(luts)


_IP_LUT = _byte_luts(64, _IP)
_FP_LUT = _byte_luts(64, _FP)
_PC1_LUT = _byte_luts(64, _PC1)
# PC2 consumes a 56-bit quantity: pad to 56 bits (7 bytes).
_PC2_LUT = _byte_luts(56, _PC2)

# Combined SP-boxes: S-box output already run through the P permutation,
# so one lookup per 6-bit chunk replaces the per-round S + P work.
_SP = tuple(
    tuple(
        _permute(
            _SBOXES[box][((chunk >> 4) & 0b10) | (chunk & 1)][(chunk >> 1) & 0x0F]
            << (28 - 4 * box),
            32,
            _P,
        )
        for chunk in range(64)
    )
    for box in range(8)
)

# Every XOR-permutation of every SP-box: ``_SPX[box][k]`` is ``_SP[box]``
# re-indexed by a 6-bit subkey chunk (``_SPX[box][k][i] == _SP[box][i ^
# k]``).  The key schedule then *selects* eight tables per round and the
# round function drops all eight subkey XORs -- the per-key work moves to
# a handful of tuple lookups at schedule time, the per-block loop is pure
# subscripting.  8 boxes x 64 chunks x 64 entries ~= 32k shared ints.
_SPX = tuple(
    tuple(tuple(sp[i ^ k] for i in range(64)) for k in range(64))
    for sp in _SP
)


def _crypt(
    block: int,
    subkeys: Sequence[Tuple[Tuple[int, ...], ...]],
    # The tables are bound as default arguments so every lookup in the
    # hot loop resolves as a local, not a module global.
    ip0=_IP_LUT[0], ip1=_IP_LUT[1], ip2=_IP_LUT[2], ip3=_IP_LUT[3],
    ip4=_IP_LUT[4], ip5=_IP_LUT[5], ip6=_IP_LUT[6], ip7=_IP_LUT[7],
    fp0=_FP_LUT[0], fp1=_FP_LUT[1], fp2=_FP_LUT[2], fp3=_FP_LUT[3],
    fp4=_FP_LUT[4], fp5=_FP_LUT[5], fp6=_FP_LUT[6], fp7=_FP_LUT[7],
) -> int:
    """One DES block in int space (the direction is set by ``subkeys``).

    ``subkeys`` is the key schedule as produced by :func:`_key_schedule`:
    sixteen rounds of eight key-selected SP tables (see ``_SPX``), so the
    round function is subscripting and OR only.
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
    for t0, t1, t2, t3, t4, t5, t6, t7 in subkeys:
        # E(R) read off a 34-bit widening of R: bit 32 wrapped above the
        # MSB, bit 1 wrapped below the LSB.  The eight overlapping 6-bit
        # expansion windows then sit at shifts 28, 24, ..., 0 (the top
        # window needs no mask: y >> 28 is already just six bits).
        y = ((right & 1) << 33) | (right << 1) | (right >> 31)
        left, right = right, left ^ (
            t0[y >> 28]
            | t1[(y >> 24) & 0x3F]
            | t2[(y >> 20) & 0x3F]
            | t3[(y >> 16) & 0x3F]
            | t4[(y >> 12) & 0x3F]
            | t5[(y >> 8) & 0x3F]
            | t6[(y >> 4) & 0x3F]
            | t7[y & 0x3F]
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


def _round_key_luts() -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Per-round window tables with the rotation *and* PC2 folded in.

    The schedule's per-round work is ``rotate(C, t); rotate(D, t);
    PC2(C|D)``.  Both steps are bit permutations, so they compose: bit
    ``i`` of the unrotated C half lands at position ``(i + t) % 28``
    after the round's cumulative left-rotation ``t``, and its PC2 image
    from there is a fixed 48-bit mask.  Folding that composition into
    tables indexed by 7-bit windows of the *unrotated* halves turns the
    whole round into eight lookups and seven ORs -- no rotates, no
    56-bit re-packing, no generic table application.

    Layout: sixteen rounds x eight tables (windows of C at bit offsets
    21/14/7/0, then the same four windows of D) x 128 entries.
    """
    # PC2 image of each single bit of the (rotated) C and D halves.
    pc2_c_bit = [_apply_luts((1 << i) << 28, 56, _PC2_LUT) for i in range(28)]
    pc2_d_bit = [_apply_luts(1 << i, 56, _PC2_LUT) for i in range(28)]
    rounds = []
    total = 0
    for shift in _SHIFTS:
        total += shift
        tables = []
        for half_bits in (pc2_c_bit, pc2_d_bit):
            for base in (21, 14, 7, 0):
                window = []
                for value in range(128):
                    k48 = 0
                    for bit in range(7):
                        if (value >> bit) & 1:
                            k48 |= half_bits[(base + bit + total) % 28]
                    window.append(k48)
                tables.append(tuple(window))
        rounds.append(tuple(tables))
    return tuple(rounds)


_ROUND_KEY_LUTS = _round_key_luts()


def _raw_schedule(key: int) -> Tuple[Tuple[int, ...], ...]:
    """The sixteen round subkeys as raw 6-bit chunks (no table selection).

    The 48-bit subkeys come from :data:`_ROUND_KEY_LUTS`, which bakes the
    per-round rotation and PC2 into window lookups on the PC1 output.
    The vector datapath consumes the chunks as they are
    (:mod:`repro.crypto.vector` packs them into per-round XOR masks);
    the scalar path selects its tables over them (:func:`_key_schedule`).
    """
    permuted = _apply_luts(key, 64, _PC1_LUT)
    c = (permuted >> 28) & 0x0FFFFFFF
    d = permuted & 0x0FFFFFFF
    c0, c1, c2, c3 = c >> 21, (c >> 14) & 127, (c >> 7) & 127, c & 127
    d0, d1, d2, d3 = d >> 21, (d >> 14) & 127, (d >> 7) & 127, d & 127
    rounds = []
    for cw0, cw1, cw2, cw3, dw0, dw1, dw2, dw3 in _ROUND_KEY_LUTS:
        k48 = (
            cw0[c0] | cw1[c1] | cw2[c2] | cw3[c3]
            | dw0[d0] | dw1[d1] | dw2[d2] | dw3[d3]
        )
        rounds.append(
            (
                (k48 >> 42) & 0x3F,
                (k48 >> 36) & 0x3F,
                (k48 >> 30) & 0x3F,
                (k48 >> 24) & 0x3F,
                (k48 >> 18) & 0x3F,
                (k48 >> 12) & 0x3F,
                (k48 >> 6) & 0x3F,
                k48 & 0x3F,
            )
        )
    return tuple(rounds)


def _key_schedule(
    raw: Tuple[Tuple[int, ...], ...]
) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """The round subkeys of :func:`_raw_schedule` as selected SP tables.

    Each 6-bit chunk picks its pre-XORed SP table from ``_SPX`` --
    sixteen rounds of eight shared 64-entry tuples, no per-key table
    construction.
    """
    spx0, spx1, spx2, spx3, spx4, spx5, spx6, spx7 = _SPX
    return tuple(
        [
            (spx0[k0], spx1[k1], spx2[k2], spx3[k3],
             spx4[k4], spx5[k5], spx6[k6], spx7[k7])
            for k0, k1, k2, k3, k4, k5, k6, k7 in raw
        ]
    )


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

    __slots__ = ("subkeys", "subkeys_rev", "raw_subkeys", "_vector")

    #: Process-wide count of key-schedule constructions (one per DES()).
    schedule_builds = 0

    def __init__(self, key: bytes) -> None:
        if len(key) != BLOCK_SIZE:
            raise ValueError(f"DES key must be 8 bytes, got {len(key)}")
        DES.schedule_builds += 1
        #: Sixteen rounds of eight raw 6-bit subkey chunks; the vector
        #: datapath packs these into per-lane XOR masks.
        self.raw_subkeys = _raw_schedule(int.from_bytes(key, "big"))
        #: The encryption schedule: what :func:`_crypt` consumes.  The
        #: mode layer (:mod:`repro.crypto.modes`) reads these directly to
        #: drive ``_crypt`` without per-block method dispatch.
        self.subkeys = _key_schedule(self.raw_subkeys)
        self.subkeys_rev = tuple(reversed(self.subkeys))
        # The byte-aligned per-round masks, both directions, that
        # repro.crypto.vector.des packs from raw_subkeys and caches here
        # (None until a lane pass touches this key).
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
