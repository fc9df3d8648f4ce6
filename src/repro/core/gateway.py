"""Gateway tunnel mode: host/gateway-to-host/gateway security.

Section 7.1: "At the IP level, host/gateway to host/gateway security
can be easily provided.  This can be done by encrypting all datagrams
going from one host/gateway to another."

:class:`FBSGatewayTunnel` turns a forwarding router into a security
gateway.  Packets crossing between protected networks are encapsulated:
the whole inner IP packet becomes the FBS-protected body of an outer
packet addressed gateway-to-gateway (IP-in-IP with an FBS header, the
"short-cut form of IP encapsulation" of Section 7.2 applied at the
gateway).  Interior hosts need no modification and no keys.

The interesting FBS twist over plain gateway encryption: the FAM still
classifies by the *inner* 5-tuple, so each end-to-end conversation
crossing the tunnel gets its own flow key -- conversation-level
granularity at the gateway, not one bulk key per gateway pair.

On the wire between gateways, outside observers see only
gateway-to-gateway packets: source/destination pairs of interior hosts
are hidden (traffic-flow confidentiality), something the end-to-end
mapping cannot offer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.config import FBSConfig
from repro.core.errors import FBSError, ReceiveError
from repro.core.fam import DatagramAttributes, FlowAssociationMechanism
from repro.core.ip_mapping import ConversationPolicy, FBSIPMapping, extract_five_tuple
from repro.core.keying import Principal
from repro.core.mkd import MasterKeyDaemon
from repro.core.protocol import FBSEndpoint
from repro.netsim.addresses import IPAddress
from repro.netsim.host import Host
from repro.netsim.ipv4 import IPv4Header, IPv4Packet

__all__ = ["FBSGatewayTunnel", "FBS_TUNNEL_PROTO"]

#: IP protocol number for FBS tunnel encapsulation (unassigned in 1997).
FBS_TUNNEL_PROTO = 252


class FBSGatewayTunnel:
    """FBS tunnel endpoints on a forwarding router.

    Parameters
    ----------
    host:
        The router (must have ``forwarding=True``).
    mkd:
        The gateway's master key daemon.
    protected_networks:
        Networks behind *this* gateway; traffic arriving for them from
        the tunnel is decapsulated and forwarded inward.
    """

    def __init__(
        self,
        host: Host,
        mkd: MasterKeyDaemon,
        config: Optional[FBSConfig] = None,
        sfl_seed: int = 0,
    ) -> None:
        if not host.stack.forwarding:
            raise ValueError("gateway tunnel requires a forwarding host")
        self.host = host
        self.config = config or FBSConfig()
        self.policy = ConversationPolicy(threshold=self.config.threshold)
        self.endpoint = FBSEndpoint(
            principal=Principal.from_ip(host.address),
            mkd=mkd,
            fam=FlowAssociationMechanism(
                mapper=self.policy,
                fst_size=self.config.fst_size,
                sfl_seed=sfl_seed,
            ),
            config=self.config,
            now=host.clock.now,
            confounder_seed=sfl_seed ^ 0x6A7E,
        )
        #: (network, prefix_len) -> remote gateway address.
        self._peers: List[Tuple[IPAddress, int, IPAddress]] = []
        self.encapsulated = 0
        self.decapsulated = 0
        self.rejected = 0
        host.stack.forward_hook = self._forward_hook
        host.stack.register_protocol(FBS_TUNNEL_PROTO, self._tunnel_input)

    #: Tunnel datagrams have the IP mapping's wire layout.
    split = FBSIPMapping.split

    # -- configuration ------------------------------------------------------------

    def add_peer(self, network: str, prefix_len: int, gateway: IPAddress) -> None:
        """Send traffic for ``network/prefix_len`` through ``gateway``."""
        self._peers.append((IPAddress(network), prefix_len, gateway))

    def _peer_for(self, dst: IPAddress) -> Optional[IPAddress]:
        best: Optional[Tuple[int, IPAddress]] = None
        for network, prefix_len, gateway in self._peers:
            if dst.in_subnet(network, prefix_len):
                if best is None or prefix_len > best[0]:
                    best = (prefix_len, gateway)
        return best[1] if best else None

    # -- encapsulation (outbound through the tunnel) --------------------------------

    def _forward_hook(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        gateway = self._peer_for(packet.header.dst)
        if gateway is None:
            return packet  # not tunnel traffic: forward in the clear
        peer = Principal.from_ip(gateway)
        inner = packet.encode()
        attributes = DatagramAttributes(
            destination_id=peer.wire_id,
            five_tuple=extract_five_tuple(packet),
            size=len(inner),
        )
        self._charge_crypto(len(inner))
        try:
            protected = self.endpoint.protect(
                inner, peer, attributes=attributes, secret=True
            )
        except FBSError:
            return None
        self.encapsulated += 1
        return IPv4Packet(
            header=IPv4Header(
                src=self.host.address, dst=gateway, proto=FBS_TUNNEL_PROTO
            ),
            payload=protected,
        )

    # -- decapsulation (tunnel arrivals addressed to this gateway) --------------------

    def _charge_crypto(self, payload_bytes: int, receive: bool = False) -> None:
        """Gateway CPU pays for the crypto pass (on top of the generic
        forwarding costs the host already charges per frame).

        Encapsulation charges encrypt+MAC minus the generic *send* cost;
        decapsulation charges decrypt+verify minus the generic *receive*
        cost (``fbs_crypto`` prices both directions identically -- DES
        and the MAC run at the same per-byte rate either way -- but the
        generic baseline being subtracted must match the side the host
        already charged for).
        """
        self.host.charge_cpu(
            self.host.cost_model.crypto_extra(payload_bytes, receive=receive)
        )

    def _tunnel_input(self, packet: IPv4Packet) -> None:
        source = Principal.from_ip(packet.header.src)
        self._charge_crypto(
            max(0, len(packet.payload) - self.endpoint.header_size),
            receive=True,
        )
        try:
            inner_bytes = self.endpoint.unprotect(
                packet.payload, source, secret=True
            )
        except (ReceiveError, FBSError):
            self.rejected += 1
            return
        try:
            inner = IPv4Packet.decode(inner_bytes)
        except ValueError:
            self.rejected += 1
            return
        self.decapsulated += 1
        # Hand the inner packet back to IP for delivery/forwarding.
        self.host.stack.ip_output(inner)
