"""Deployment helpers: enrolling principals into an FBS security domain.

The paper assumes an out-of-band certification hierarchy; this module
packages it: an :class:`FBSDomain` owns the certificate authority, the
certificate directory, and the Diffie-Hellman group, and can enroll

* simulated hosts (installing the full IP mapping), or
* abstract principals (for the layer-independent protocol engine used
  directly over any datagram transport).

A :class:`CertificateServer` additionally serves the directory over UDP
port 500 on a simulated host, demonstrating the *secure flow bypass*:
certificate fetches travel as ordinary datagrams that FBS passes through
untouched.
"""

from __future__ import annotations

import random as _random
from typing import Dict, Optional

from repro.core.certificates import (
    CertificateAuthority,
    CertificateDirectory,
    PublicValueCertificate,
)
from repro.core.config import FBSConfig
from repro.core.fam import FlowAssociationMechanism
from repro.core.ip_mapping import CERTIFICATE_PORT, FBSIPMapping
from repro.core.keying import Principal
from repro.core.mkd import MasterKeyDaemon
from repro.core.policy import HostLevelPolicy
from repro.core.protocol import FBSEndpoint
from repro.crypto.dh import DHGroup, DHPrivateKey, WELL_KNOWN_GROUPS
from repro.netsim.host import Host
from repro.netsim.sockets import UdpSocket

__all__ = ["FBSDomain", "CertificateServer"]


class FBSDomain:
    """One security domain: CA + directory + DH group + enrollment."""

    def __init__(
        self,
        seed: int = 0,
        group: Optional[DHGroup] = None,
        config: Optional[FBSConfig] = None,
        ca_key_bits: int = 512,
    ) -> None:
        self.rng = _random.Random(seed)
        self.group = group or WELL_KNOWN_GROUPS["TEST256"]
        self.config = config or FBSConfig()
        self.ca = CertificateAuthority(self.rng, key_bits=ca_key_bits)
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
        return self._enroll(
            principal, principal.name, self.config, now=now, charge=charge
        )

    def _enroll(
        self,
        principal: Principal,
        name: str,
        config: FBSConfig,
        fetch=None,
        **mkd_kwargs,
    ) -> MasterKeyDaemon:
        """The one enrolment: keygen -> certify -> publish -> MKD (whose
        PVC misses go to ``fetch``, by default the directory itself)."""
        key = DHPrivateKey.generate(self.group, self.rng)
        self.private_keys[name] = key
        self.directory.publish(self.ca.issue(principal, key))
        return MasterKeyDaemon(
            principal=principal,
            private_key=key,
            ca_public=self.ca.public_key,
            fetch=fetch or self.directory.fetch,
            pvc_size=config.pvc_size,
            mkc_size=config.mkc_size,
            **mkd_kwargs,
        )

    def _enroll_on_host(
        self, host: Host, config: FBSConfig, fetch=None
    ) -> MasterKeyDaemon:
        """Enrol a simulated host: its clock, its CPU and its cost model
        (a directory fetch is priced; a ``fetch`` over the wire pays in
        real simulated time instead)."""
        self._enrolled += 1
        model = host.cost_model
        return self._enroll(
            Principal.from_ip(host.address),
            host.name,
            config,
            fetch,
            now=host.clock.now,
            charge=lambda cost: host.charge_cpu(cost) and None,
            modexp_cost=model.modexp,
            fetch_cost=0.0 if fetch else model.certificate_fetch_rtt,
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

    def enroll_host(
        self,
        host: Host,
        config: Optional[FBSConfig] = None,
        **mapping_kwargs,
    ) -> FBSIPMapping:
        """Enroll a simulated host and install the FBS IP mapping."""
        return self._install_mapping(host, config, None, mapping_kwargs)

    def _install_mapping(
        self, host: Host, config: Optional[FBSConfig], fetch, mapping_kwargs: dict
    ) -> FBSIPMapping:
        config = config or self.config
        mkd = self._enroll_on_host(host, config, fetch)
        mapping = FBSIPMapping(
            host=host,
            mkd=mkd,
            config=config,
            sfl_seed=self._enrolled,
            **mapping_kwargs,
        )
        mapping.install()
        return mapping

    def enroll_gateway(
        self,
        host: Host,
        config: Optional[FBSConfig] = None,
        per_conversation: bool = True,
    ):
        """Enroll a forwarding router as an FBS security gateway.

        Returns a :class:`repro.core.gateway.FBSGatewayTunnel`; call
        ``add_peer`` on it to define which networks tunnel to which
        remote gateways (Section 7.1's host/gateway-to-host/gateway
        mode).
        """
        from repro.core.gateway import FBSGatewayTunnel

        config = config or self.config
        mkd = self._enroll_on_host(host, config)
        return FBSGatewayTunnel(
            host=host,
            mkd=mkd,
            config=config,
            per_conversation=per_conversation,
            sfl_seed=self._enrolled,
        )

    def enroll_host_with_network_fetch(
        self,
        host: Host,
        certificate_server,
        config: Optional[FBSConfig] = None,
        **mapping_kwargs,
    ) -> FBSIPMapping:
        """Enroll a host whose PVC misses fetch over the wire.

        Unlike :meth:`enroll_host`, certificate fetches are real UDP
        exchanges with ``certificate_server`` (an address or a Host)
        through the secure flow bypass: the first datagram toward an
        unknown peer is dropped while the fetch is in flight, exactly as
        an ARP miss drops its trigger.  See
        :class:`repro.core.netfetch.NetworkCertificateFetcher`.
        """
        from repro.core.netfetch import NetworkCertificateFetcher
        from repro.netsim.addresses import IPAddress

        server_address = (
            certificate_server.address
            if isinstance(certificate_server, Host)
            else IPAddress(certificate_server)
        )
        fetcher = NetworkCertificateFetcher(
            host=host, server_address=server_address, ca_public=self.ca.public_key
        )
        mapping = self._install_mapping(host, config, fetcher.fetch, mapping_kwargs)
        mapping.fetcher = fetcher  # exposed for tests/diagnostics
        return mapping


class CertificateServer:
    """Serves directory lookups over UDP port 500 (the bypass port).

    Request: the raw principal wire id.  Response: the certificate's
    wire encoding.  Neither direction is secured -- certificates are
    self-authenticating, and securing the fetch would be circular.
    """

    def __init__(self, host: Host, directory: CertificateDirectory) -> None:
        self._socket = UdpSocket(host, CERTIFICATE_PORT)
        self._socket.on_receive = self._serve
        self._directory = directory
        self.requests_served = 0

    def _serve(self, payload: bytes, src, sport: int) -> None:
        try:
            certificate = self._directory.fetch(payload)
        except Exception:
            return  # unknown principal: silence, the client times out
        self.requests_served += 1
        self._socket.sendto(certificate.encode(), src, sport)
