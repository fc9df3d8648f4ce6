"""Basic host-pair keying (Section 2.2).

"Each pair of hosts have an implicit key, called the pair-based master
key ... allowing a message encrypted using this key to be sent without
arranging anything in advance."  The master key *directly* encrypts the
traffic -- the property Section 6.1 criticizes: "Under host-pair keying,
easy access to the master key is available as it is used to directly
encrypt the traffic", so compromising it exposes *all* traffic (past and
future) between the two hosts, and all connections/users share one key.

Wire format per datagram: ``IV (8 bytes) | DES-CBC(master, IV, payload)``
with an optional keyed-MD5 MAC.  Without the MAC this scheme exhibits
the classic **cut-and-paste** vulnerability: "the encrypted payload from
one datagram can be cut and inserted into another datagram without being
detected" -- demonstrated by :mod:`repro.attacks.cutpaste`.
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines.sealed import Keys, SealedDatagramModule
from repro.core.keying import Principal
from repro.core.mkd import MasterKeyDaemon
from repro.netsim.host import Host
from repro.netsim.ipv4 import IPv4Packet

__all__ = ["HostPairKeying"]


class HostPairKeying(SealedDatagramModule):
    """Host-pair keying at the IP layer.

    Parameters
    ----------
    host / mkd:
        The host and its keying daemon (reused from the FBS substrate:
        host-pair keying needs the same DH certificate machinery).
    include_mac:
        Add a keyed-MD5 MAC (keyed on the *master* key -- the flaw
        remains: one key for everything).
    """

    name = "host-pair"

    def __init__(
        self,
        host: Host,
        mkd: MasterKeyDaemon,
        include_mac: bool = False,
        confounder_seed: int = 99,
    ) -> None:
        super().__init__(host, 0, confounder_seed, include_mac)
        self.mkd = mkd

    # -- keying --------------------------------------------------------------

    def master_key_for(self, peer: Principal) -> bytes:
        """The pair master key (exposed so attacks can model compromise)."""
        return self.mkd.master_key(peer)

    def traffic_keys(self, peer: Principal) -> Keys:
        """What seals everything for ``peer``: DES under the master
        key's first 8 bytes, the MAC under all of it."""
        master = self.master_key_for(peer)
        return master[:8], master

    def send_keys(self, packet: IPv4Packet) -> Tuple[bytes, Keys]:
        return b"", self.traffic_keys(Principal.from_ip(packet.header.dst))

    def receive_keys(self, packet: IPv4Packet, prefix: bytes) -> Keys:
        return self.traffic_keys(Principal.from_ip(packet.header.src))
