"""Public value certificates and the certification hierarchy.

Section 5.2: "the public values are made available and authenticated via
a distributed certification hierarchy (e.g., X.509 certificates) or a
secure DNS service."  This module provides that substrate: an
X.509-flavoured certificate binding a principal to its Diffie-Hellman
public value, signed by a certificate authority, plus a directory
service the master key daemon queries on PVC misses.

Certificates are canonically serialized so signatures are well-defined;
the fetch "should not and need not be secure" because "the certificates
are to be verified on receipt" (Section 5.3), and the MKD verifies every
one it uses.
"""

from __future__ import annotations

import random as _random
import struct
from dataclasses import dataclass
from typing import Dict

from repro.core.errors import FBSError, UnknownPrincipalError
from repro.core.keying import Principal
from repro.crypto.dh import DHGroup, DHPrivateKey, WELL_KNOWN_GROUPS
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, SignatureError

__all__ = [
    "PublicValueCertificate",
    "CertificateAuthority",
    "CertificateDirectory",
    "CertificateError",
]


class CertificateError(FBSError):
    """A certificate failed verification (signature, validity, binding,
    or an unusable public value).  An :class:`FBSError`: on the receive
    path a peer that cannot be keyed is a ``keying`` rejection, not a
    crash."""


@dataclass(frozen=True)
class PublicValueCertificate:
    """A signed binding: principal -> (DH group, public value, validity)."""

    subject: Principal
    group_name: str
    public_value: int
    not_before: float
    not_after: float
    signature: bytes = b""

    def to_be_signed(self) -> bytes:
        """Canonical encoding of everything except the signature."""
        group = WELL_KNOWN_GROUPS[self.group_name]
        value_bytes = self.public_value.to_bytes(group.key_bytes, "big")
        name = self.group_name.encode("ascii")
        return (
            struct.pack(">H", len(self.subject.wire_id))
            + self.subject.wire_id
            + struct.pack(">H", len(name))
            + name
            + struct.pack(">H", len(value_bytes))
            + value_bytes
            + struct.pack(">dd", self.not_before, self.not_after)
        )

    def verify(self, ca_public: RSAPublicKey, now: float) -> None:
        """Check signature and validity window.

        Raises
        ------
        CertificateError
            On any failure.  Called "each time it is used", per the
            paper's PVC design.
        """
        if self.group_name not in WELL_KNOWN_GROUPS:
            raise CertificateError(f"unknown DH group {self.group_name!r}")
        if not self.not_before <= now <= self.not_after:
            raise CertificateError(
                f"certificate for {self.subject} outside validity window at {now}"
            )
        try:
            ca_public.verify(self.to_be_signed(), self.signature)
        except SignatureError as exc:
            raise CertificateError(
                f"bad signature on certificate for {self.subject}: {exc}"
            ) from exc


#: RSA modulus size of the certificate authority's signing key.
CA_KEY_BITS = 512
#: The validity window every certificate is issued with: from the
#: simulation's start to beyond any run.
NOT_BEFORE = 0.0
NOT_AFTER = 1e12


class CertificateAuthority:
    """Issues and verifies public value certificates.

    One CA suffices for the simulation; a hierarchy would simply chain
    verifications.
    """

    def __init__(self, rng: _random.Random) -> None:
        self._keypair = RSAKeyPair.generate(CA_KEY_BITS, rng)

    @property
    def public_key(self) -> RSAPublicKey:
        """The verification key every principal is provisioned with."""
        return self._keypair.public

    def issue(self, subject: Principal, key: DHPrivateKey) -> PublicValueCertificate:
        """Issue a certificate over a principal's DH public value, valid
        from :data:`NOT_BEFORE` to :data:`NOT_AFTER`."""
        cert = PublicValueCertificate(
            subject=subject,
            group_name=key.group.name,
            public_value=key.public,
            not_before=NOT_BEFORE,
            not_after=NOT_AFTER,
        )
        signature = self._keypair.sign(cert.to_be_signed())
        return PublicValueCertificate(
            subject=cert.subject,
            group_name=cert.group_name,
            public_value=cert.public_value,
            not_before=cert.not_before,
            not_after=cert.not_after,
            signature=signature,
        )


class CertificateDirectory:
    """The certificate lookup service (CA directory / secure-DNS stand-in).

    ``fetch`` is the operation a PVC miss triggers: a plain dict lookup
    (see :mod:`repro.core.mkd`).
    """

    def __init__(self) -> None:
        self._certs: Dict[bytes, PublicValueCertificate] = {}
        self.fetches = 0

    def publish(self, certificate: PublicValueCertificate) -> None:
        """Register a principal's certificate."""
        self._certs[certificate.subject.wire_id] = certificate

    def fetch(self, principal_id: bytes) -> PublicValueCertificate:
        """Look up a certificate by principal wire id.

        Raises
        ------
        UnknownPrincipalError
            If no certificate is on file.
        """
        self.fetches += 1
        cert = self._certs.get(principal_id)
        if cert is None:
            raise UnknownPrincipalError(
                f"no certificate for principal id {principal_id.hex()}"
            )
        return cert

    def __len__(self) -> int:
        return len(self._certs)
