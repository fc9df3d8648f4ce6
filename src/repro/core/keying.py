"""Zero-message keying: pair-based master keys and flow keys.

Section 5.2 defines::

    K_{S,D} = g^{sd} mod p                      (pair-based master key)
    K_f     = H(sfl | K_{S,D} | S | D)          (flow key)

"S and D are included to explicitly tie the flow key K_f to that of a
flow between S and D."  Knowledge of K_f does not reveal K_{S,D} or any
other flow key (H is one-way) -- the property Section 6.1 contrasts with
host-pair keying.

Principals are abstract: "the principals could be network interfaces on
hosts, the hosts themselves, network protocol layers, applications, or
end users."  :class:`Principal` therefore carries an opaque name and a
canonical byte encoding; the IP mapping uses 4-byte addresses, the test
transports use UTF-8 names.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.config import AlgorithmSuite, MacAlgorithm
from repro.crypto import vector as _vector
from repro.crypto.secret import Key, Secret, derive_key, reveal
from repro.obs.events import CryptoStateBuilt

__all__ = ["Principal", "KeyDerivation", "FlowCryptoState", "mac_lanes"]


@dataclass(frozen=True)
class Principal:
    """A uniquely addressable protocol principal.

    ``wire_id`` is the canonical byte encoding concatenated into the flow
    key derivation; two principals are the same iff their wire ids are.
    """

    name: str
    wire_id: bytes

    @classmethod
    def from_name(cls, name: str) -> "Principal":
        """Principal identified by a UTF-8 name (application layer)."""
        encoded = name.encode("utf-8")
        return cls(name=name, wire_id=struct.pack(">H", len(encoded)) + encoded)

    @classmethod
    def from_ip(cls, address) -> "Principal":
        """Principal identified by an IPv4 address (network layer)."""
        return cls(name=str(address), wire_id=address.to_bytes())

    def __str__(self) -> str:
        return self.name


class KeyDerivation:
    """Derives master and flow keys for one algorithm suite."""

    def __init__(self, suite: AlgorithmSuite) -> None:
        self._suite = suite

    def flow_key(
        self,
        sfl: int,
        master_key: Key,
        source: Principal,
        destination: Principal,
    ) -> Secret:
        """K_f = H(sfl | K_{S,D} | S | D)."""
        return derive_key(
            struct.pack(">Q", sfl),
            master_key,
            source.wire_id,
            destination.wire_id,
            hash=self._suite.flow_key_hash.func,
        )

    @staticmethod
    def encryption_key(flow_key: Key) -> Secret:
        """The DES key for a flow: the leading 8 bytes of K_f."""
        if len(flow_key) < 8:
            raise ValueError("flow key too short for a DES key")
        return Secret(reveal(flow_key)[:8])

    @staticmethod
    def mac_key(flow_key: Key) -> Secret:
        """The MAC key for a flow: the full K_f."""
        return Secret(reveal(flow_key))


class FlowCryptoState:
    """Everything key-derived a flow's datapath needs, computed once.

    Section 5.3's promise -- "with proper caching, the overhead of the
    FBS protocol can be reduced to the bare minimum, i.e., only MAC
    computation and encryption" -- only holds if the cache carries more
    than ``K_f``: re-deriving ``mac_key``, re-absorbing the keyed-hash
    prefix, or rebuilding the DES key schedule on every datagram is
    per-flow work leaking into the per-packet path.  Instances of this
    class ride in the TFKC/RFKC next to the flow key and precompute:

    * ``mac_key``, the full ``K_f`` as plain bytes: the expanded key
      material below is bytes too, so the warm path opens no
      :class:`~repro.crypto.secret.Secret`, and only this module and
      :mod:`repro.crypto` may read it (``mac_lanes`` does, for the
      protocol engine);
    * for prefix-keyed MACs, a hash object already fed the key -- each
      datagram clones it and absorbs only ``confounder | ts | body``;
    * for HMAC, the inner/outer pad states (the standard HMAC
      precomputation, saving two extra compression calls per MAC);
    * the DES cipher (schedule included), built lazily on the first
      datagram that needs encryption or a DES-CBC-MAC.

    ``mac()`` output is bit-identical to
    ``suite.mac.func(mac_key, data)[:suite.mac_bytes]`` for every
    :class:`~repro.core.config.MacAlgorithm`; tests assert this
    differentially.  The state is as soft as the flow key it shadows:
    flushing the cache drops it and the next datagram rebuilds it.
    """

    __slots__ = ("flow_key", "mac_key", "_mac_alg", "_mac_bytes",
                 "_prefix", "_inner", "_outer", "_cipher")

    _HMAC_BLOCK = 64

    def __init__(
        self, flow_key: Key, suite: AlgorithmSuite, tracer=None
    ) -> None:
        self.flow_key = flow_key
        self.mac_key = reveal(flow_key)
        self._mac_alg = suite.mac
        self._mac_bytes = suite.mac_bytes
        self._prefix = None
        self._inner = None
        self._outer = None
        self._cipher = None
        hash_cls = self._hash_cls(suite.mac)
        if suite.mac in (MacAlgorithm.KEYED_MD5, MacAlgorithm.KEYED_SHS):
            self._prefix = hash_cls(self.mac_key)
        elif suite.mac in (MacAlgorithm.HMAC_MD5, MacAlgorithm.HMAC_SHS):
            key = self.mac_key
            if len(key) > self._HMAC_BLOCK:
                key = hash_cls(key).digest()
            key = key.ljust(self._HMAC_BLOCK, b"\x00")
            self._inner = hash_cls(bytes(k ^ 0x36 for k in key))
            self._outer = hash_cls(bytes(k ^ 0x5C for k in key))
        # The tracer is used once and not stored (__slots__ stays lean):
        # the event marks the construction itself.
        if tracer is not None and tracer.enabled:
            tracer.emit(CryptoStateBuilt())

    @staticmethod
    def _hash_cls(mac: MacAlgorithm):
        from repro.crypto.md5 import MD5
        from repro.crypto.sha1 import SHA1

        if mac in (MacAlgorithm.KEYED_SHS, MacAlgorithm.HMAC_SHS):
            return SHA1
        return MD5

    @property
    def cipher(self):
        """The flow's DES instance; the schedule is built exactly once."""
        cipher = self._cipher
        if cipher is None:
            from repro.crypto.des import DES

            cipher = self._cipher = DES(
                KeyDerivation.encryption_key(self.flow_key)
            )
        return cipher

    def mac(self, data: bytes) -> bytes:
        """The suite MAC of ``data``, truncated to the header width."""
        alg = self._mac_alg
        if self._prefix is not None:
            h = self._prefix.copy()
            h.update(data)
            return h.digest()[: self._mac_bytes]
        if self._inner is not None:
            inner = self._inner.copy()
            inner.update(data)
            outer = self._outer.copy()
            outer.update(inner.digest())
            return outer.digest()[: self._mac_bytes]
        if alg is MacAlgorithm.DES_MAC:
            from repro.crypto.mac import des_cbc_mac_with

            # DES-CBC-MAC keys on mac_key[:8] == flow_key[:8]: the same
            # cached schedule serves encryption and MAC (footnote 12).
            return des_cbc_mac_with(self.cipher, data)[: self._mac_bytes]
        if alg is MacAlgorithm.NULL:
            return b"\x00" * self._mac_bytes
        # An algorithm this fast path has no precomputation for: fall
        # back to the generic construction (still correct, just slower).
        return alg.func(self.mac_key, data)[: self._mac_bytes]


def mac_lanes(states: Sequence[FlowCryptoState], inputs: Sequence[bytes]) -> List[bytes]:
    """Keyed-MD5 lanes: each input's full MAC under its flow's state.
    The protocol engine's MAC stage calls this rather than read the
    states' key bytes itself."""
    return _vector.keyed_md5_many([state.mac_key for state in states], inputs)
