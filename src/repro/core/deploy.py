"""Deployment helpers: enrolling principals into an FBS security domain.

The paper assumes an out-of-band certification hierarchy; this module
packages it: an :class:`FBSDomain` owns the certificate authority, the
certificate directory, and the Diffie-Hellman group, and can enroll

* simulated hosts (installing the full IP mapping), or
* abstract principals (for the layer-independent protocol engine used
  directly over any datagram transport).
"""

from __future__ import annotations

import random as _random
from typing import Dict, Optional

from repro.core.certificates import CertificateAuthority, CertificateDirectory
from repro.core.config import FBSConfig
from repro.core.fam import FlowAssociationMechanism
from repro.core.ip_mapping import FBSIPMapping
from repro.core.keying import Principal
from repro.core.mkd import MasterKeyDaemon
from repro.core.policy import HostLevelPolicy
from repro.core.protocol import FBSEndpoint
from repro.crypto.dh import DHGroup, DHPrivateKey, WELL_KNOWN_GROUPS
from repro.netsim.host import Host

__all__ = ["FBSDomain"]


class FBSDomain:
    """One security domain: CA + directory + DH group + enrollment."""

    def __init__(
        self,
        seed: int = 0,
        group: Optional[DHGroup] = None,
        config: Optional[FBSConfig] = None,
    ) -> None:
        self.rng = _random.Random(seed)
        self.group = group or WELL_KNOWN_GROUPS["TEST256"]
        self.config = config or FBSConfig()
        self.ca = CertificateAuthority(self.rng)
        self.directory = CertificateDirectory()
        self.private_keys: Dict[str, DHPrivateKey] = {}
        self._enrolled = 0

    # -- abstract principals (layer independent) --------------------------------

    def enroll_principal(
        self,
        principal: Principal,
        now=lambda: 0.0,
        charge=None,
    ) -> MasterKeyDaemon:
        """Generate keys, certify, publish; return the principal's MKD."""
        return self._enroll(principal, now=now, charge=charge)

    def _enroll(self, principal: Principal, **mkd_kwargs) -> MasterKeyDaemon:
        """The one enrolment: keygen -> certify -> publish -> MKD (whose
        PVC misses go to the directory).  The private value is filed
        under the principal's name, whatever carries it."""
        key = DHPrivateKey.generate(self.group, self.rng)
        self.private_keys[principal.name] = key
        self.directory.publish(self.ca.issue(principal, key))
        return MasterKeyDaemon(
            principal=principal,
            private_key=key,
            ca_public=self.ca.public_key,
            fetch=self.directory.fetch,
            pvc_size=self.config.pvc_size,
            mkc_size=self.config.mkc_size,
            **mkd_kwargs,
        )

    def _enroll_on_host(self, host: Host) -> MasterKeyDaemon:
        """Enrol a simulated host: its clock, its CPU and its cost model
        (a directory fetch is priced at the model's round trip)."""
        self._enrolled += 1
        model = host.cost_model
        return self._enroll(
            Principal.from_ip(host.address),
            now=host.clock.now,
            charge=lambda cost: host.charge_cpu(cost) and None,
            modexp_cost=model.modexp,
            fetch_cost=model.certificate_fetch_rtt,
            upcall_cost=model.upcall,
        )

    def make_endpoint(
        self,
        principal: Principal,
        mapper=None,
        now=lambda: 0.0,
        sfl_seed: Optional[int] = None,
        tracer=None,
        registry=None,
    ) -> FBSEndpoint:
        """Enroll and build a ready-to-use abstract FBS endpoint."""
        mkd = self.enroll_principal(principal, now=now)
        self._enrolled += 1
        fam = FlowAssociationMechanism(
            mapper=mapper or HostLevelPolicy(threshold=self.config.threshold),
            fst_size=self.config.fst_size,
            sfl_seed=self._enrolled if sfl_seed is None else sfl_seed,
        )
        return FBSEndpoint(
            principal=principal,
            mkd=mkd,
            fam=fam,
            config=self.config,
            now=now,
            confounder_seed=self._enrolled * 7919,
            tracer=tracer,
            registry=registry,
        )

    # -- simulated hosts (IP mapping) ----------------------------------------------

    def enroll_host(self, host: Host, **mapping_kwargs) -> FBSIPMapping:
        """Enroll a simulated host and install the FBS IP mapping."""
        mkd = self._enroll_on_host(host)
        mapping = FBSIPMapping(
            host=host,
            mkd=mkd,
            config=self.config,
            sfl_seed=self._enrolled,
            **mapping_kwargs,
        )
        mapping.install()
        return mapping

    def enroll_gateway(self, host: Host):
        """Enroll a forwarding router as an FBS security gateway.

        Returns a :class:`repro.core.gateway.FBSGatewayTunnel`; call
        ``add_peer`` on it to define which networks tunnel to which
        remote gateways (Section 7.1's host/gateway-to-host/gateway
        mode).
        """
        from repro.core.gateway import FBSGatewayTunnel

        mkd = self._enroll_on_host(host)
        return FBSGatewayTunnel(
            host=host, mkd=mkd, config=self.config, sfl_seed=self._enrolled
        )
