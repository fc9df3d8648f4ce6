"""FBS configuration: algorithms, field sizes, policy parameters.

The paper "avoid[s] stipulating the use of specific cryptographic
algorithms ... and the exact size of the security parameters"
(Section 5); those choices are made per instantiation.  This module
gathers them.  The defaults reproduce the paper's IP mapping
(Section 7.2): MD5 for both ``H`` and the MAC, DES-CBC for encryption,
64-bit sfl, 32-bit confounder, 32-bit timestamp, 128-bit MAC.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.crypto.mac import hmac_md5, hmac_sha1, keyed_md5, keyed_sha1
from repro.crypto.md5 import md5
from repro.crypto.modes import CipherMode
from repro.crypto.sha1 import sha1

__all__ = ["HashAlgorithm", "MacAlgorithm", "AlgorithmSuite", "FBSConfig"]


class HashAlgorithm(enum.Enum):
    """Candidates the paper names for the flow-key hash ``H``."""

    MD5 = "md5"
    SHS = "shs"  # SHA-1, per FIPS 180

    @property
    def func(self) -> Callable[[bytes], bytes]:
        return md5 if self is HashAlgorithm.MD5 else sha1

    @property
    def digest_size(self) -> int:
        return 16 if self is HashAlgorithm.MD5 else 20


def _null_mac(_key: bytes, _data: bytes) -> bytes:
    """The nullified MAC of the paper's "FBS NOP" configuration:
    "both encryption and MAC returns immediately" (Section 7.3)."""
    return b"\x00" * 16


class MacAlgorithm(enum.Enum):
    """MAC constructions: the paper's keyed-MD5 plus modern HMAC variants.

    ``NULL`` is the nullified MAC used by the FBS NOP measurement
    configuration of Figure 8.  ``DES_MAC`` is the footnote-12 option
    ("For efficiency, DES could have been used for both encryption and
    MAC computation"): a DES CBC-MAC with a 64-bit tag.
    """

    KEYED_MD5 = "keyed-md5"
    KEYED_SHS = "keyed-shs"
    HMAC_MD5 = "hmac-md5"
    HMAC_SHS = "hmac-shs"
    DES_MAC = "des-cbc-mac"
    NULL = "null"

    @property
    def func(self) -> Callable[[bytes, bytes], bytes]:
        from repro.crypto.mac import des_cbc_mac

        return {
            MacAlgorithm.KEYED_MD5: keyed_md5,
            MacAlgorithm.KEYED_SHS: keyed_sha1,
            MacAlgorithm.HMAC_MD5: hmac_md5,
            MacAlgorithm.HMAC_SHS: hmac_sha1,
            MacAlgorithm.DES_MAC: des_cbc_mac,
            MacAlgorithm.NULL: _null_mac,
        }[self]

    @property
    def digest_size(self) -> int:
        if self in (MacAlgorithm.KEYED_SHS, MacAlgorithm.HMAC_SHS):
            return 20
        if self is MacAlgorithm.DES_MAC:
            return 8
        return 16


@dataclass(frozen=True)
class AlgorithmSuite:
    """The cryptographic algorithm choices for one FBS instantiation.

    The paper's header "should also include an algorithm identification
    field" for generality; ``suite_id`` is that identifier when the
    extended header is used.
    """

    suite_id: int = 1
    flow_key_hash: HashAlgorithm = HashAlgorithm.MD5
    mac: MacAlgorithm = MacAlgorithm.KEYED_MD5
    cipher_mode: CipherMode = CipherMode.CBC
    #: MAC bits carried in the header (may truncate the digest,
    #: Section 5.3).
    mac_bits: int = 128

    def __post_init__(self) -> None:
        if self.mac_bits % 8:
            raise ValueError("mac_bits must be byte aligned")
        if self.mac_bits > self.mac.digest_size * 8:
            raise ValueError(
                f"mac_bits {self.mac_bits} exceeds {self.mac.name} digest size"
            )
        if self.mac_bits < 32:
            raise ValueError("refusing a MAC shorter than 32 bits")

    @property
    def mac_bytes(self) -> int:
        return self.mac_bits // 8


@dataclass(frozen=True)
class FBSConfig:
    """All tunables for one FBS instance."""

    suite: AlgorithmSuite = field(default_factory=AlgorithmSuite)
    #: Flow expiry THRESHOLD of the Figure 7 policy, seconds.  The paper
    #: studies 300-1200 s and recommends 300-600 s.
    threshold: float = 600.0
    #: Flow state table size (paper: "almost no collision is observed
    #: with a reasonable FSTSIZE, e.g., 32 or above").
    fst_size: int = 64
    #: Freshness window half-width, seconds.  "For wide-area networks,
    #: the freshness window may be large (on the order of minutes)".
    freshness_half_window: float = 120.0
    #: Key cache sizes.
    tfkc_size: int = 64
    rfkc_size: int = 64
    mkc_size: int = 32
    pvc_size: int = 32
    #: Flow-key cache associativity (1 = direct-mapped, the paper's
    #: software-cache default; ``ways == size`` = fully associative
    #: LRU, which removes collision misses entirely -- "collision
    #: misses can be avoided by increasing the associativity of the
    #: cache", Section 5.3).  The load engine runs fully associative so
    #: that per-flow cache behaviour is independent of which flows
    #: share a worker (shard-exact metrics).
    tfkc_ways: int = 1
    rfkc_ways: int = 1
    #: Whether the header carries the optional algorithm-id field.
    carry_algorithm_id: bool = False
    #: Capacity of the optional soft-state replay guard (0 = off, the
    #: paper's behaviour).  See :mod:`repro.core.replay_guard`.
    replay_guard_size: int = 0
    #: Let the datapath's MAC and cipher stages call the lane kernels
    #: (:mod:`repro.crypto.vector`).  Purely a speed switch: wire bytes,
    #: counters, rejection reasons and event order are bit-identical to
    #: the scalar kernels (differential tests pin this).  The endpoint
    #: uses the scalar kernels below each stage's lane crossover, or
    #: when the suite is not the vectorized pair (keyed MD5 + DES-CBC).
    vectorize: bool = True

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        for name in ("fst_size", "tfkc_size", "rfkc_size", "mkc_size", "pvc_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.freshness_half_window < 0:
            raise ValueError("freshness window must be non-negative")
        for ways_name, size_name in (
            ("tfkc_ways", "tfkc_size"),
            ("rfkc_ways", "rfkc_size"),
        ):
            ways = getattr(self, ways_name)
            size = getattr(self, size_name)
            if ways < 1:
                raise ValueError(f"{ways_name} must be at least 1")
            if ways > 1 and size % ways:
                raise ValueError(
                    f"{size_name} must be a multiple of {ways_name}"
                )

    def with_(self, **overrides) -> "FBSConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **overrides)
