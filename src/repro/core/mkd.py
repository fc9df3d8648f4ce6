"""The master key daemon (MKD) and its upcall interface.

Figure 5 places the PVC and MKC in user space, owned by a master key
daemon; Figure 6 shows the kernel reaching it via ``Upcall()``, "an OS
primitive that allows kernel functions to directly call a user-level
function".

The MKD owns:

* the principal's long-term DH private value,
* the public value cache (PVC) of peer certificates,
* the master key cache (MKC) of computed pair keys, and
* the fetch path to the certificate directory -- which in the paper
  travels through the *secure flow bypass* so certificate fetches are
  never themselves FBS-protected (avoiding the circularity it calls
  out); here it is a directory lookup priced as that round trip.

Costs: a PVC miss is "extremely expensive" (a network round trip); an
MKC miss costs a modular exponentiation; an upcall costs a kernel/user
crossing.  All three are charged through an optional ``charge`` hook so
the throughput benches see them.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.caches import MasterKeyCache, PublicValueCache
from repro.core.certificates import (
    CertificateDirectory,
    CertificateError,
    PublicValueCertificate,
)
from repro.core.errors import UnknownPrincipalError
from repro.core.keying import Principal
from repro.crypto.dh import DHPrivateKey
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.secret import Secret

__all__ = ["MasterKeyDaemon"]

#: Fetch function type: principal wire id -> certificate.
FetchFunc = Callable[[bytes], PublicValueCertificate]
ChargeFunc = Callable[[float], None]


class MasterKeyDaemon:
    """User-space keying agent for one principal.

    Parameters
    ----------
    principal:
        The principal this daemon serves.
    private_key:
        Its long-term DH private value.
    ca_public:
        The certification hierarchy's verification key.
    fetch:
        How to obtain a peer certificate on a PVC miss (a directory
        lookup).
    pvc_size / mkc_size:
        Cache capacities.
    charge / costs:
        Optional CPU-accounting hook and cost constants (see
        :mod:`repro.netsim.costmodel`).
    """

    def __init__(
        self,
        principal: Principal,
        private_key: DHPrivateKey,
        ca_public: RSAPublicKey,
        fetch: FetchFunc,
        pvc_size: int = 32,
        mkc_size: int = 32,
        now: Callable[[], float] = lambda: 0.0,
        charge: Optional[ChargeFunc] = None,
        modexp_cost: float = 0.0,
        fetch_cost: float = 0.0,
        upcall_cost: float = 0.0,
    ) -> None:
        self.principal = principal
        self._private_key = private_key
        self._ca_public = ca_public
        self._fetch = fetch
        self.pvc = PublicValueCache(pvc_size)
        self.mkc = MasterKeyCache(mkc_size)
        self._now = now
        self._charge = charge or (lambda _cost: None)
        self._modexp_cost = modexp_cost
        self._fetch_cost = fetch_cost
        self._upcall_cost = upcall_cost
        # Statistics.
        self.certificate_fetches = 0
        self.master_keys_computed = 0
        self.verification_failures = 0

    # -- the upcall interface (Figure 6) --------------------------------------

    def upcall_master_key(self, peer: Principal) -> Secret:
        """``Upcall(MKDaemon, D)``: return K_{S,D}, computing if needed.

        This is the kernel's entry point on an MKC miss in the send path
        (and symmetrically on the receive path).
        """
        self._charge(self._upcall_cost)
        return self.master_key(peer)

    # -- keying ------------------------------------------------------------------

    def master_key(self, peer: Principal) -> Secret:
        """Return the pair-based master key with ``peer`` (MKC-cached)."""
        cached = self.mkc.lookup(peer.wire_id)
        if cached is not None:
            return cached
        certificate = self._certificate_for(peer)
        # Verify on every use -- the PVC stores certificates precisely so
        # that this check is always possible.
        try:
            certificate.verify(self._ca_public, self._now())
            self._check_public_value(certificate)
        except CertificateError:
            self.verification_failures += 1
            self.pvc.flush()  # drop the bad entry with the rest; soft state
            raise
        self._charge(self._modexp_cost)
        self.master_keys_computed += 1
        master = self._private_key.agree(certificate.public_value)
        self.mkc.install(peer.wire_id, master)
        return master

    def _check_public_value(self, certificate: PublicValueCertificate) -> None:
        """A signature binds a value to a name; it does not make the
        value a usable group element.  Our short private value
        (:meth:`DHPrivateKey.generate`) is sound only against a value
        of our own safe-prime group other than 0, 1 and ``p - 1``, so
        check that here, before the modexp is charged or spent."""
        group = self._private_key.group
        if certificate.group_name != group.name:
            raise CertificateError(
                f"certificate for {certificate.subject} is over group "
                f"{certificate.group_name}, ours is {group.name}"
            )
        if not 1 < certificate.public_value < group.p - 1:
            raise CertificateError(
                f"degenerate DH public value certified for {certificate.subject}"
            )

    def _certificate_for(self, peer: Principal) -> PublicValueCertificate:
        cached = self.pvc.lookup(peer.wire_id)
        if cached is not None:
            return cached  # type: ignore[return-value]
        # PVC miss: fetch from the directory, priced as the bypass round trip.
        self._charge(self._fetch_cost)
        self.certificate_fetches += 1
        certificate = self._fetch(peer.wire_id)
        if certificate.subject.wire_id != peer.wire_id:
            self.verification_failures += 1
            raise CertificateError(
                f"directory returned certificate for {certificate.subject}, "
                f"wanted {peer}"
            )
        self.pvc.install(peer.wire_id, certificate)
        return certificate

    def pin_certificate(self, certificate: PublicValueCertificate) -> None:
        """Pin a certificate, the paper's alternative to the bypass."""
        self.pvc.pin(certificate.subject.wire_id, certificate)

    # -- rekeying the principal -----------------------------------------------------

    def change_private_value(self, new_key: DHPrivateKey) -> None:
        """Rotate the long-term private value.

        The paper assumes "the pair-based master key will be changed
        (e.g., by changing the private value of a principal) before this
        counter wraps around".  All cached master keys become stale and
        are flushed (they are soft state, so this is always safe).
        """
        self._private_key = new_key
        self.mkc.flush()
