"""Diffie-Hellman key exchange -- the basis of zero-message keying.

FBS derives the implicit pair-based master key::

    K_{S,D} = g^{sd} mod p

from each principal's private value (``s``, ``d``) and the peer's public
value (``g^d mod p``, ``g^s mod p``) over a common, well-known group
(Section 5.2).  The confidentiality of the private values and the
authenticity of the public values are assumed by the protocol; the
certificate machinery that delivers authenticated public values lives in
:mod:`repro.core.certificates`.

Groups
------
``WELL_KNOWN_GROUPS`` ships the Oakley groups 1 and 2 (RFC 2409) -- the
groups contemporary with the paper -- plus two small fixed safe-prime
groups (``TEST128``, ``TEST256``) used throughout the test suite where
cryptographic strength is irrelevant but speed matters.

Private values
--------------
All four groups are *safe-prime* groups: ``p = 2q + 1`` with ``q`` prime,
and ``g`` generates the subgroup of order ``q``
(``tests/crypto/test_dh.py`` checks all three facts for every shipped
group).  In that setting the best attacks on a short exponent cost about
the square root of its range, so a private value twice as long as the
key it protects is as strong as a full-length one (van Oorschot &
Wiener, "On Diffie-Hellman Key Agreement with Short Exponents",
EUROCRYPT '96; RFC 2631 section 2.2; RFC 3526 section 8).  The paper
fixes the group, not the exponent's length (Section 5.2), and its flow
keys are 128 bits, so :meth:`DHPrivateKey.generate` draws 256-bit
private values: a modexp costs time linear in the exponent's length,
and first contact over ``OAKLEY2`` is one modexp.  Short exponents lean
on the peer's value being a proper group element; the master key daemon
checks ``1 < y < p - 1`` (which leaves only the subgroups of order ``q``
and ``2q``, both large) before it spends the modexp.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict

from repro.crypto.secret import Secret

__all__ = ["DHGroup", "DHPrivateKey", "WELL_KNOWN_GROUPS"]

_OAKLEY1_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF",
    16,
)

_OAKLEY2_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)

# Fixed safe primes (p = 2q + 1, q prime) generated once and pinned for
# deterministic, fast tests.
_TEST128_P = 0xEB93F78CC415E2B0BA5B209EF18B20E7
_TEST256_P = 0x8DF854994726EEB94A597E2642F883D47B91D68CAE4021510D6D4CEE5AF60563


@dataclass(frozen=True)
class DHGroup:
    """A Diffie-Hellman group: prime modulus ``p`` and generator ``g``."""

    name: str
    p: int
    g: int = 2

    @property
    def key_bytes(self) -> int:
        """Size of a shared secret when serialized, in bytes."""
        return (self.p.bit_length() + 7) // 8

    def public_value(self, private: int) -> int:
        """Compute ``g^private mod p``."""
        return pow(self.g, private, self.p)

    def shared_secret(self, private: int, peer_public: int) -> int:
        """Compute the pair secret ``peer_public^private mod p``.

        Rejects degenerate peer values (0, 1, p-1, or out of range) that
        would collapse the shared secret into a guessable constant.
        """
        if not 1 < peer_public < self.p - 1:
            raise ValueError("degenerate or out-of-range DH public value")
        return pow(peer_public, private, self.p)

    def shared_secret_bytes(self, private: int, peer_public: int) -> bytes:
        """Shared secret as a fixed-width big-endian byte string."""
        return self.shared_secret(private, peer_public).to_bytes(
            self.key_bytes, "big"
        )


# Each generator spans the subgroup of prime order q = (p - 1) / 2.  2 is
# a quadratic residue when p = 7 (mod 8), which holds for three of the
# moduli; TEST256's is 3 (mod 8), where 2 would span all of Z_p* and a
# public value would leak its exponent's parity, so it takes 4 = 2^2.
WELL_KNOWN_GROUPS: Dict[str, DHGroup] = {
    "OAKLEY1": DHGroup("OAKLEY1", _OAKLEY1_P, 2),
    "OAKLEY2": DHGroup("OAKLEY2", _OAKLEY2_P, 2),
    "TEST128": DHGroup("TEST128", _TEST128_P, 2),
    "TEST256": DHGroup("TEST256", _TEST256_P, 4),
}


@dataclass
class DHPrivateKey:
    """A principal's Diffie-Hellman private value and cached public value.

    The paper assumes each principal holds a long-term private value whose
    public counterpart is certified (Section 5.2).  ``generate`` draws the
    private value from an explicit seeded RNG for reproducibility; the
    constructor accepts any value in the full range ``1 < x < p - 2``.
    """

    group: DHGroup
    private: int
    public: int = field(init=False)

    def __post_init__(self) -> None:
        if not 1 < self.private < self.group.p - 2:
            raise ValueError("DH private value out of range")
        self.public = self.group.public_value(self.private)

    @classmethod
    def generate(cls, group: DHGroup, rng: _random.Random) -> "DHPrivateKey":
        """Draw a private value of exactly ``min(256, bits(p) - 2)`` bits.

        256 is twice the 128-bit flow key, the standard exponent length
        for a safe-prime group (see the module docstring for the
        precondition and the references); 160 bits, RFC 2631's floor,
        would save a further third of the modexp and make the exponent
        (80 bits of strength) the weakest link instead of the flow key.
        The top bit is set so every modexp costs the same, and
        ``bits(p) - 2`` keeps the value below the subgroup order
        ``q = (p - 1) / 2`` in the toy groups (``TEST256`` -> 254 bits,
        ``TEST128`` -> 126).  One rule for every group;
        ``getrandbits`` yields the same stream on every supported
        interpreter version, so seeded runs replay.
        """
        bits = min(256, group.p.bit_length() - 2)
        private = rng.getrandbits(bits) | 1 << (bits - 1)
        return cls(group=group, private=private)

    def agree(self, peer_public: int) -> Secret:
        """Derive the pair-based master secret with a peer's public value."""
        return Secret(self.group.shared_secret_bytes(self.private, peer_public))
