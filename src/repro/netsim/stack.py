"""A 4.4BSD-shaped IP stack with FBS hook points.

The paper describes ``ip_output`` as "three logical parts": (1) bulk
output processing including options and route selection, (2)
fragmentation if necessary, and (3) transmission on the chosen
interface; and ``ip_input`` likewise: (1) bulk input processing, (2)
reassembly if the packet is not being forwarded, and (3) dispatch to the
higher-layer protocol.  FBS hooks in "between the first and second parts"
of output and "between the second and third parts" of input
(Section 7.2), making FBS transparent to IP while still benefiting from
IP fragmentation and reassembly.

:class:`IPStack` reproduces that structure literally: ``output_hook``
and ``input_hook`` are the two patch points; installing the FBS mapping
(:mod:`repro.core.ip_mapping`) is a two-line change here, exactly as in
the BSD kernel ("ip_input.c and ip_output.c each required two lines of
changes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.addresses import IPAddress
from repro.netsim.clock import Simulator
from repro.netsim.fragmentation import FragmentationNeeded, Reassembler, fragment
from repro.netsim.ipv4 import IPv4Header, IPv4Packet

__all__ = ["Interface", "Route", "IPStack", "StackStats"]

#: Hook signature: takes a packet, returns the (possibly re-written)
#: packet, or None to swallow it.
PacketHook = Callable[[IPv4Packet], Optional[IPv4Packet]]
ProtocolHandler = Callable[[IPv4Packet], None]


@dataclass
class Interface:
    """A network attachment point: address, MTU, and a frame transmitter.

    ``transmit(frame, next_hop)`` is wired to an
    :class:`~repro.netsim.link.EthernetSegment` by the topology builder;
    ``next_hop`` is the on-link address the frame is for (the route's
    gateway, else the destination itself).
    """

    address: IPAddress
    mtu: int = 1500
    network: Optional[IPAddress] = None
    prefix_len: int = 24
    transmit: Optional[Callable[[bytes, IPAddress], None]] = None
    name: str = "eth0"


@dataclass
class Route:
    """A routing table entry: destination network -> (interface, gateway)."""

    network: IPAddress
    prefix_len: int
    interface: Interface
    #: The next hop frames for this route are addressed to at the link
    #: layer; None => directly connected (the next hop is the destination).
    gateway: Optional[IPAddress] = None


@dataclass
class StackStats:
    """Counters mirroring the interesting ``ipstat`` fields."""

    packets_sent: int = 0
    packets_received: int = 0
    packets_forwarded: int = 0
    packets_delivered: int = 0
    fragments_created: int = 0
    bad_headers: int = 0
    no_route: int = 0
    ttl_exceeded: int = 0
    hook_discards: int = 0
    no_protocol: int = 0


class IPStack:
    """The network layer of one simulated host.

    Parameters
    ----------
    sim:
        The simulation clock (reassembly timeouts need it).
    local_addresses:
        Addresses this stack accepts as "mine".
    forwarding:
        Whether to forward packets not addressed to us (router behaviour).
    """

    def __init__(
        self,
        sim: Simulator,
        forwarding: bool = False,
    ) -> None:
        self._sim = sim
        self._forwarding = forwarding
        self._interfaces: List[Interface] = []
        self._routes: List[Route] = []
        self._handlers: Dict[int, ProtocolHandler] = {}
        self._reassembler = Reassembler(now=lambda: sim.now)
        self._next_ip_id = 1
        self.stats = StackStats()
        #: FBS send hook: called between output part 1 (routing) and
        #: part 2 (fragmentation).
        self.output_hook: Optional[PacketHook] = None
        #: FBS receive hook: called between input part 2 (reassembly)
        #: and part 3 (protocol dispatch).
        self.input_hook: Optional[PacketHook] = None
        #: Gateway hook: called on the forwarding path after the TTL
        #: decrement, before re-transmission.  Used by the gateway
        #: tunnel mode (Section 7.1's "host/gateway to host/gateway
        #: security"); end-to-end FBS never touches it.
        self.forward_hook: Optional[PacketHook] = None
        #: Fired when a DF packet cannot fit the egress MTU (the event
        #: 4.4BSD answers with ICMP type 3 code 4; the simulation has no
        #: ICMP, so the host only counts its own).
        self.on_fragmentation_needed: Optional[Callable[[IPv4Packet], None]] = None

    # -- configuration ------------------------------------------------------

    @property
    def forwarding(self) -> bool:
        """Whether this stack forwards packets not addressed to it."""
        return self._forwarding

    @property
    def reassembler(self) -> Reassembler:
        """The input-path reassembler (fault harnesses probe its bounds)."""
        return self._reassembler

    def add_interface(self, interface: Interface) -> None:
        """Attach an interface and install its connected route."""
        self._interfaces.append(interface)
        if interface.network is not None:
            self._routes.append(
                Route(
                    network=interface.network,
                    prefix_len=interface.prefix_len,
                    interface=interface,
                )
            )

    def add_route(self, route: Route) -> None:
        """Install a static route."""
        self._routes.append(route)

    def register_protocol(self, proto: int, handler: ProtocolHandler) -> None:
        """Register the upper-layer handler for an IP protocol number."""
        self._handlers[proto] = handler

    @property
    def interfaces(self) -> Tuple[Interface, ...]:
        return tuple(self._interfaces)

    def is_local(self, addr: IPAddress) -> bool:
        """True if ``addr`` belongs to this stack."""
        return any(iface.address == addr for iface in self._interfaces)

    def lookup_route(self, dst: IPAddress) -> Optional[Route]:
        """Longest-prefix-match route lookup."""
        best: Optional[Route] = None
        for route in self._routes:
            if dst.in_subnet(route.network, route.prefix_len):
                if best is None or route.prefix_len > best.prefix_len:
                    best = route
        return best

    # -- output path (the paper's three parts) ------------------------------

    def ip_output(self, packet: IPv4Packet) -> bool:
        """Send a datagram.  Returns False if it could not be sent.

        Part 1: route selection and header completion; then the FBS send
        hook; Part 2: fragmentation; Part 3: interface transmission.
        """
        # -- Part 1: bulk output processing / route selection.
        route = self.lookup_route(packet.header.dst)
        if route is None:
            self.stats.no_route += 1
            return False
        if packet.header.identification == 0:
            packet.header.identification = self._allocate_ip_id()

        # -- FBS hook (between part 1 and part 2).
        if self.output_hook is not None:
            hooked = self.output_hook(packet)
            if hooked is None:
                self.stats.hook_discards += 1
                return False
            packet = hooked

        return self._fragment_and_transmit(packet, route)

    def _fragment_and_transmit(self, packet: IPv4Packet, route: Route) -> bool:
        """Parts 2 and 3 of output processing."""
        try:
            pieces = fragment(packet, route.interface.mtu)
        except FragmentationNeeded:
            # Dropped (4.4BSD would also answer ICMP "fragmentation needed").
            self.stats.bad_headers += 1
            if self.on_fragmentation_needed is not None:
                self.on_fragmentation_needed(packet)
            return False
        if len(pieces) > 1:
            self.stats.fragments_created += len(pieces)
        if route.interface.transmit is None:
            raise RuntimeError(f"interface {route.interface.name} not wired up")
        next_hop = route.gateway or packet.header.dst
        for piece in pieces:
            route.interface.transmit(piece.encode(), next_hop)
            self.stats.packets_sent += 1
        return True

    def _allocate_ip_id(self) -> int:
        value = self._next_ip_id
        self._next_ip_id = (self._next_ip_id + 1) & 0xFFFF or 1
        return value

    # -- input path (the paper's three parts) -------------------------------

    def ip_input(self, raw: bytes) -> None:
        """Receive a raw datagram from an interface."""
        # -- Part 1: bulk input processing (validation, forwarding check).
        try:
            packet = IPv4Packet.decode(raw)
        except ValueError:
            self.stats.bad_headers += 1
            return
        self.stats.packets_received += 1

        if not self.is_local(packet.header.dst):
            if self._forwarding:
                self._forward(packet)
            return

        # -- Part 2: reassembly (only for packets addressed to us).
        whole = self._reassembler.push(packet)
        if whole is None:
            return

        # -- FBS hook (between part 2 and part 3).
        if self.input_hook is not None:
            hooked = self.input_hook(whole)
            if hooked is None:
                self.stats.hook_discards += 1
                return
            whole = hooked

        # -- Part 3: dispatch to the higher-layer protocol.
        handler = self._handlers.get(whole.header.proto)
        if handler is None:
            self.stats.no_protocol += 1
            return
        self.stats.packets_delivered += 1
        handler(whole)

    def _forward(self, packet: IPv4Packet) -> None:
        """Router path: decrement TTL and re-emit.

        Forwarded packets bypass reassembly and both FBS hooks -- FBS is
        end-to-end, and "a forwarding router also will not see anything
        strange about FBS processed IP packets" (Section 7.2).
        """
        if packet.header.ttl <= 1:
            self.stats.ttl_exceeded += 1
            return
        packet.header.ttl -= 1
        if self.forward_hook is not None:
            hooked = self.forward_hook(packet)
            if hooked is None:
                self.stats.hook_discards += 1
                return
            packet = hooked
        route = self.lookup_route(packet.header.dst)
        if route is None:
            self.stats.no_route += 1
            return
        self.stats.packets_forwarded += 1
        self._fragment_and_transmit(packet, route)
