"""The FBS mapping to IP (Section 7).

:class:`FBSIPMapping` is the simulation analogue of ``ip_fbs.c``: it
plugs into the host stack's two hook points (the ``ip_output.c`` /
``ip_input.c`` two-line changes), inserts the security flow header
"in between the normal IPv4 header and the IP payload", and exposes the
header size for the ``tcp_output.c`` MSS fix.

Policy: the Section 7.1 conversation policy (5-tuple + THRESHOLD) for
TCP and UDP; anything else (raw IP, ICMP) is classified as a host-level
flow, per footnote 10 ("raw IP can be considered as host-level flows").

Bypass: datagrams to or from the certificate directory's port pass
through untouched -- the *secure flow bypass* of Figure 5, which avoids
the circularity of securing the fetches that security itself needs.

Costs: the mapping charges the host CPU for FBS work beyond the generic
IP path (the transport layer already charged that), using the calibrated
:class:`~repro.netsim.costmodel.CostModel`.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.core.config import FBSConfig, MacAlgorithm
from repro.core.errors import FBSError
from repro.core.fam import DatagramAttributes, FlowAssociationMechanism
from repro.core.header import FBSHeader
from repro.core.keying import KeyDerivation, Principal
from repro.core.mkd import MasterKeyDaemon
from repro.core.policy import KeyedMapper
from repro.core.protocol import FBSEndpoint
from repro.crypto.secret import Secret
from repro.netsim.addresses import FiveTuple, IPAddress
from repro.netsim.host import Host, SecurityModule
from repro.netsim.ipv4 import IPProtocol, IPv4Packet

__all__ = ["ConversationPolicy", "FBSIPMapping", "is_bypass"]

#: Well-known UDP port of the certificate directory service: the one
#: port whose datagrams bypass FBS.
CERTIFICATE_PORT = 500


#: Section 7.1's policy is the Figure 7 mapper under its default key:
#: the packed 5-tuple when there is one, the destination principal
#: otherwise, in one FST (the encodings cannot collide: 13 vs. 4 bytes).
ConversationPolicy = KeyedMapper


def extract_five_tuple(packet: IPv4Packet) -> Optional[FiveTuple]:
    """Pull the Section 7.1 5-tuple out of a packet, if it has one.

    Requires an unfragmented TCP or UDP payload with at least the port
    fields present (true for all first fragments the simulation emits,
    since FBS runs before fragmentation).
    """
    if packet.header.proto not in (IPProtocol.TCP, IPProtocol.UDP):
        return None
    if packet.header.fragment_offset != 0 or len(packet.payload) < 4:
        return None
    sport, dport = struct.unpack_from(">HH", packet.payload, 0)
    return FiveTuple(
        proto=packet.header.proto,
        saddr=packet.header.src,
        sport=sport,
        daddr=packet.header.dst,
        dport=dport,
    )


def is_bypass(packet: IPv4Packet) -> bool:
    """Bypass check: is this plaintext certificate-directory traffic?

    For a bypassed datagram the transport header sits where the FBS
    header would otherwise be, so the port fields are at offset 0.
    An FBS-protected datagram could have sfl bytes that *look* like
    a bypass port, so for UDP the length field must also be
    consistent with the datagram -- random sfl/confounder bytes fail
    that second check with overwhelming probability.
    """
    if packet.header.proto not in (IPProtocol.TCP, IPProtocol.UDP):
        return False
    if len(packet.payload) < 8:
        return False
    sport, dport = struct.unpack_from(">HH", packet.payload, 0)
    if CERTIFICATE_PORT not in (sport, dport):
        return False
    if packet.header.proto == IPProtocol.UDP:
        (length,) = struct.unpack_from(">H", packet.payload, 4)
        if length != len(packet.payload):
            return False
    return True


class FBSIPMapping(SecurityModule):
    """FBS installed at the IP layer of one host."""

    name = "fbs"

    def __init__(
        self,
        host: Host,
        mkd: MasterKeyDaemon,
        config: Optional[FBSConfig] = None,
        encrypt_all: bool = False,
        sfl_seed: int = 0,
        tracer=None,
        registry=None,
    ) -> None:
        self.host = host
        self.config = config or FBSConfig()
        self.encrypt_all = encrypt_all

        principal = Principal.from_ip(host.address)
        self.policy = ConversationPolicy(threshold=self.config.threshold)
        fam = FlowAssociationMechanism(
            mapper=self.policy,
            fst_size=self.config.fst_size,
            sfl_seed=sfl_seed,
        )
        self.endpoint = FBSEndpoint(
            principal=principal,
            mkd=mkd,
            fam=fam,
            config=self.config,
            # The host's *local* clock, not the simulator's: per-host
            # skew/drift must reach FBS timestamps and freshness checks.
            now=host.clock.now,
            confounder_seed=sfl_seed ^ 0xC0FFEE,
            charge=lambda cost: host.charge_cpu(cost) and None,
            flow_key_cost=host.cost_model.flow_key_derivation,
            tracer=tracer,
            registry=registry,
        )
        # MAC latency distribution under the host's cost model, fed per
        # datagram from the same calibrated numbers the CPU is charged.
        self._mac_histogram = self.endpoint.registry.histogram(
            "mac_cost_seconds"
        )
        self.endpoint.registry.register_collector(self._collect_host)
        # Statistics.
        self.outbound_protected = 0
        self.inbound_accepted = 0
        self.inbound_rejected = 0

    def _collect_host(self) -> None:
        self.endpoint.registry.gauge("host_cpu_seconds").set(
            self.host.cpu_seconds_used
        )

    # -- SecurityModule interface ------------------------------------------------

    def header_overhead(self) -> int:
        """Bytes added per datagram (feeds the tcp_output MSS fix).

        Includes the security flow header plus, when the configured
        cipher mode pads (ECB/CBC), the worst-case one-block padding
        expansion -- otherwise an exact-fit DF segment that gets
        encrypted would still outgrow the MTU (the paper's pre-fix
        breakage: exact-fit DF segments grow past the MTU once the FBS
        header is inserted and are dropped, stalling bulk transfers).
        """
        from repro.crypto.des import BLOCK_SIZE
        from repro.crypto.modes import CipherMode

        padding = (
            BLOCK_SIZE
            if self.config.suite.cipher_mode in (CipherMode.ECB, CipherMode.CBC)
            else 0
        )
        return self.endpoint.header_size + padding

    def outbound(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        """FBSSend hook: runs between ip_output parts 1 and 2."""
        if is_bypass(packet):
            return packet
        five_tuple = extract_five_tuple(packet)
        destination = Principal.from_ip(packet.header.dst)
        attributes = DatagramAttributes(
            destination_id=destination.wire_id,
            five_tuple=five_tuple,
            size=len(packet.payload),
        )
        self._charge_fbs_cost(len(packet.payload), self.encrypt_all)
        try:
            protected = self.endpoint.protect(
                packet.payload, destination, attributes=attributes, secret=self.encrypt_all
            )
        except FBSError:
            return None
        self.outbound_protected += 1
        # The FBS header rides between the IP header and the payload;
        # IPv4Packet.encode() fixes total_length, as ip_fbs.c fixed the
        # length field in the kernel.
        packet.payload = protected
        return packet

    def inbound(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        """FBSReceive hook: runs between ip_input parts 2 and 3."""
        if is_bypass(packet):
            return packet
        source = Principal.from_ip(packet.header.src)
        self._charge_fbs_cost(
            max(0, len(packet.payload) - self.endpoint.header_size),
            self.encrypt_all,
            receive=True,
        )
        try:
            body = self.endpoint.unprotect(packet.payload, source, secret=self.encrypt_all)
        except FBSError:  # ReceiveError included
            self.inbound_rejected += 1
            return None
        self.inbound_accepted += 1
        packet.payload = body
        return packet

    # -- the layout and keying rules the Section 2 schemes share ---------------------

    def split(self, data: bytes) -> Tuple[bytes, bytes, bytes, bytes]:
        """``(sfl, IV, MAC, body)`` in the sealed schemes' terms: the sfl
        is the label R2 keys on, the IV the confounder doubled (Section
        7.2); the timestamp rides under the MAC."""
        config = self.config
        header = FBSHeader.decode(data, config.suite, config.carry_algorithm_id)
        body = data[self.endpoint.header_size :]
        return header.sfl.to_bytes(8, "big"), header.iv(), header.mac, body

    def receive_keys(self, packet: IPv4Packet, prefix: bytes) -> Tuple[Secret, Secret]:
        """``(cipher_key, mac_key)`` of the flow ``prefix`` names, from the
        source the IP header claims: K_f = H(sfl | K_{S,D} | S | D)."""
        endpoint = self.endpoint
        source = Principal.from_ip(packet.header.src)
        master = endpoint.mkd.master_key(source)
        sfl = int.from_bytes(prefix, "big")
        flow_key = endpoint.kdf.flow_key(sfl, master, source, endpoint.principal)
        return KeyDerivation.encryption_key(flow_key), KeyDerivation.mac_key(flow_key)

    # -- internals -------------------------------------------------------------------

    def _charge_fbs_cost(
        self, payload_bytes: int, secret: bool, receive: bool = False
    ) -> None:
        """Charge the CPU for FBS work beyond the generic path."""
        model = self.host.cost_model
        mac_on = self.config.suite.mac is not MacAlgorithm.NULL
        if mac_on:
            self._mac_histogram.observe(model.md5(payload_bytes))
        if not mac_on and not secret:
            extra = model.fbs_per_packet  # the NOP configuration
        else:
            extra = model.crypto_extra(
                payload_bytes, encrypt=secret, mac=mac_on, receive=receive
            )
        self.host.charge_cpu(extra)

    # -- convenience -----------------------------------------------------------------

    def install(self) -> None:
        """Wire this mapping into the host (hooks + MSS reserve)."""
        self.host.install_security(self)
