"""An application-layer mapping of FBS.

The paper insists FBS "is not defined for any specific protocol layer.
It assumes only the availability of an underlying (insecure) datagram
transport" (Section 1), and that principals "could be network interfaces
on hosts, the hosts themselves, network protocol layers, applications,
or end users" (Section 5.2).  The IP mapping of Section 7 is one
instantiation; this module is another, demonstrating both properties:

* the **transport** is UDP -- the protected datagram rides inside UDP
  payloads, below nothing and above everything;
* the **principals** are named applications/users, not hosts -- two
  applications on the same machine hold distinct private values and
  distinct pair keys, the fine granularity host-level schemes cannot
  express (Section 2.2's "unexpected vulnerabilities");
* **flows** are application conversations: the mapper classifies by
  (destination principal, conversation tag), the paper's "datagrams
  belonging to the same application 'conversation' constitute a flow".

Wire format inside each UDP payload::

    sender-id-length (2) | sender wire id | FBS header | protected body

The sender id travels in the clear (it is the analogue of the IP source
address the network-layer mapping reads); its integrity is enforced by
the flow key, which binds S and D.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.config import FBSConfig
from repro.core.errors import FBSError, ReceiveError
from repro.core.fam import DatagramAttributes, FlowAssociationMechanism
from repro.core.keying import Principal
from repro.core.mkd import MasterKeyDaemon
from repro.core.policy import KeyedMapper
from repro.core.protocol import FBSEndpoint
from repro.netsim.addresses import IPAddress
from repro.netsim.host import Host
from repro.netsim.sockets import UdpSocket

__all__ = ["ConversationPolicy", "ApplicationDirectory", "FBSApplication"]

#: Delivery callback: (payload, source principal, conversation tag).
DeliverFunc = Callable[[bytes, Principal, bytes], None]


class ConversationPolicy(KeyedMapper):
    """Mapper keyed by (destination principal, conversation tag).

    The application names its own conversations ("video", "audio",
    "whiteboard", ...); each (peer, tag) pair is a flow, optionally
    expiring after ``threshold`` idle seconds like the IP policy.
    """

    def key(self, attributes: DatagramAttributes) -> bytes:
        tag = attributes.extra.get("conversation", b"")
        if isinstance(tag, str):
            tag = tag.encode("utf-8")
        return struct.pack(">H", len(attributes.destination_id)) + attributes.destination_id + tag


class ApplicationDirectory:
    """Name service for application principals: name -> (principal,
    host address, UDP port)."""

    def __init__(self) -> None:
        self._entries: Dict[str, Tuple[Principal, IPAddress, int]] = {}

    def register(self, principal: Principal, address: IPAddress, port: int) -> None:
        self._entries[principal.name] = (principal, address, port)

    def resolve(self, name: str) -> Tuple[Principal, IPAddress, int]:
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(f"unknown application principal {name!r}")
        return entry

    def principal_by_wire_id(self, wire_id: bytes) -> Optional[Principal]:
        for principal, _, _ in self._entries.values():
            if principal.wire_id == wire_id:
                return principal
        return None


class FBSApplication:
    """One application-layer FBS endpoint bound to a UDP port.

    Parameters
    ----------
    host:
        The simulated machine this application runs on.
    principal:
        The application's own identity (NOT the host's).
    mkd:
        Its master key daemon (enroll via
        :meth:`repro.core.deploy.FBSDomain.enroll_principal` with this
        principal).
    directory:
        The application name service.
    port:
        UDP port to bind (0 = ephemeral).
    """

    def __init__(
        self,
        host: Host,
        principal: Principal,
        mkd: MasterKeyDaemon,
        directory: ApplicationDirectory,
        port: int = 0,
        config: Optional[FBSConfig] = None,
        sfl_seed: int = 0,
    ) -> None:
        self.host = host
        self.principal = principal
        self.directory = directory
        self.config = config or FBSConfig()
        self.policy = ConversationPolicy(threshold=self.config.threshold)
        self.endpoint = FBSEndpoint(
            principal=principal,
            mkd=mkd,
            fam=FlowAssociationMechanism(
                mapper=self.policy,
                fst_size=self.config.fst_size,
                sfl_seed=sfl_seed,
            ),
            config=self.config,
            now=host.clock.now,
            confounder_seed=sfl_seed ^ 0xAB5,
        )
        self._socket = UdpSocket(host, port)
        self._socket.on_receive = self._on_datagram
        self.port = self._socket.port
        directory.register(principal, host.address, self.port)
        self.on_receive: Optional[DeliverFunc] = None
        self.delivered = 0
        self.rejected = 0

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        payload: bytes,
        destination: str,
        conversation: bytes = b"",
        secret: bool = True,
    ) -> None:
        """Protect and send one datagram to a named application.  The
        receiver always decrypts, so a ``secret=False`` datagram is
        dropped there."""
        peer, address, port = self.directory.resolve(destination)
        attributes = DatagramAttributes(
            destination_id=peer.wire_id,
            size=len(payload),
            extra={"conversation": conversation},
        )
        protected = self.endpoint.protect(
            payload, peer, attributes=attributes, secret=secret
        )
        sender_id = self.principal.wire_id
        wire = struct.pack(">H", len(sender_id)) + sender_id + protected
        self._socket.sendto(wire, address, port)

    # -- receiving -----------------------------------------------------------------

    def _on_datagram(self, wire: bytes, _src, _sport) -> None:
        if len(wire) < 2:
            self.rejected += 1
            return
        (id_len,) = struct.unpack_from(">H", wire, 0)
        if len(wire) < 2 + id_len:
            self.rejected += 1
            return
        sender_wire_id = wire[2 : 2 + id_len]
        protected = wire[2 + id_len :]
        source = self.directory.principal_by_wire_id(sender_wire_id)
        if source is None:
            self.rejected += 1
            return
        try:
            body = self.endpoint.unprotect(protected, source, secret=True)
        except (ReceiveError, FBSError):
            self.rejected += 1
            return
        self.delivered += 1
        if self.on_receive is not None:
            self.on_receive(body, source, b"")

    def close(self) -> None:
        """Release the UDP port."""
        self._socket.close()
