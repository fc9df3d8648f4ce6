"""Keyed message authentication codes.

The FBS MAC (Section 5.2) is defined as::

    MAC = HMAC(K_f | confounder | timestamp | payload)

where ``HMAC`` denotes "some one-way cryptographic hash function" keyed on
the flow key.  The paper's implementation uses keyed MD5, i.e. the simple
prefix construction ``H(key | data)`` popular in 1997.  We provide both
that construction (for fidelity) and the RFC 2104 HMAC construction (the
modern, length-extension-resistant variant) so the ablation benches can
compare them.

The paper also notes that "it is possible though, with reduced security,
to use only part of these hashes as the MAC"; :func:`truncate_mac`
implements that trade-off.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.md5 import MD5, md5
from repro.crypto.secret import Key, reveal
from repro.crypto.sha1 import SHA1, sha1

__all__ = [
    "keyed_md5",
    "keyed_sha1",
    "hmac_md5",
    "hmac_sha1",
    "des_cbc_mac",
    "des_cbc_mac_with",
    "truncate_mac",
    "constant_time_equal",
]

_BLOCK = 64


def des_cbc_mac(key: Key, data: bytes) -> bytes:
    """DES CBC-MAC (FIPS 113 / ANSI X9.9 shape): the final CBC block.

    The paper's footnote 12: "For efficiency, DES could have been used
    for both encryption and MAC computation."  The tag is 8 bytes; the
    key is the leading 8 bytes of the supplied key material.  Length
    extension is headed off by prepending the message length.
    """
    from repro.crypto.des import DES

    if len(key) < 8:
        raise ValueError("DES CBC-MAC needs at least 8 key bytes")
    return des_cbc_mac_with(DES(key[:8]), data)


def des_cbc_mac_with(cipher, data: bytes) -> bytes:
    """:func:`des_cbc_mac` driven by an already-constructed cipher.

    The per-flow fast path (``FlowCryptoState``) caches the DES key
    schedule; this entry point lets it MAC without rebuilding one.
    """
    import struct

    from repro.crypto.des import _crypt
    from repro.crypto.modes import pad_block

    padded = pad_block(len(data).to_bytes(8, "big") + data)
    subkeys = cipher.subkeys
    state = 0
    for value in struct.unpack(">%dQ" % (len(padded) // 8), padded):
        state = _crypt(value ^ state, subkeys)
    return state.to_bytes(8, "big")


def keyed_md5(key: Key, data: bytes) -> bytes:
    """Prefix-keyed MD5: ``MD5(key | data)`` -- the paper's construction."""
    return md5(reveal(key) + data)


def keyed_sha1(key: Key, data: bytes) -> bytes:
    """Prefix-keyed SHA-1: ``SHA1(key | data)``."""
    return sha1(reveal(key) + data)


def _hmac(hash_cls: Callable, key: Key, data: bytes, digest_size: int) -> bytes:
    key = reveal(key)
    if len(key) > _BLOCK:
        key = hash_cls(key).digest()
    key = key.ljust(_BLOCK, b"\x00")
    inner = hash_cls(bytes(k ^ 0x36 for k in key))
    inner.update(data)
    outer = hash_cls(bytes(k ^ 0x5C for k in key))
    outer.update(inner.digest())
    return outer.digest()


def hmac_md5(key: Key, data: bytes) -> bytes:
    """RFC 2104 HMAC-MD5."""
    return _hmac(MD5, key, data, 16)


def hmac_sha1(key: Key, data: bytes) -> bytes:
    """RFC 2104 HMAC-SHA1."""
    return _hmac(SHA1, key, data, 20)


def truncate_mac(mac: bytes, bits: int) -> bytes:
    """Keep only the leading ``bits`` of a MAC (must be byte-aligned).

    Reduces header overhead at the cost of security margin, per the
    paper's Section 5.3 note on MAC sizing.
    """
    if bits % 8:
        raise ValueError("MAC truncation must be byte aligned")
    nbytes = bits // 8
    if not 0 < nbytes <= len(mac):
        raise ValueError(f"cannot truncate {len(mac)}-byte MAC to {nbytes} bytes")
    return mac[:nbytes]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two MACs without an early-exit timing channel."""
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0
