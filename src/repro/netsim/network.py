"""Topology builder: hosts, segments, links, and routing glue.

``Network`` wires hosts onto shared Ethernet segments (the paper's
testbed topology) or point-to-point links, assigns addresses, and
installs the static routes a small campus topology needs.
"""

from __future__ import annotations

import random as _random
from typing import Dict, List, Optional, Tuple

from repro.netsim.addresses import IPAddress
from repro.netsim.clock import Simulator
from repro.netsim.costmodel import CostModel, FREE_CPU
from repro.netsim.host import Host
from repro.netsim.link import EthernetSegment, LinkConditions
from repro.netsim.stack import Interface, Route

__all__ = ["Network"]


class Network:
    """A collection of hosts and media sharing one simulator.

    Typical use::

        net = Network(seed=7)
        segment = net.add_segment("lan", "10.0.0.0", prefix_len=24)
        alice = net.add_host("alice", segment=segment)
        bob = net.add_host("bob", segment=segment)
        ...
        net.sim.run()
    """

    def __init__(self, seed: int = 0, sim: Optional[Simulator] = None) -> None:
        self.sim = sim or Simulator()
        self.seed = seed
        self._rng = _random.Random(seed)
        self.hosts: Dict[str, Host] = {}
        self._segments: Dict[str, Tuple[EthernetSegment, IPAddress, int]] = {}
        self._next_host_octet: Dict[str, int] = {}

    # -- media ------------------------------------------------------------------

    def add_segment(
        self,
        name: str,
        network: str,
        prefix_len: int = 24,
        bandwidth_bps: float = 10_000_000.0,
        conditions: Optional[LinkConditions] = None,
    ) -> str:
        """Create a shared Ethernet segment; returns its name."""
        if name in self._segments:
            raise ValueError(f"segment {name!r} already exists")
        segment = EthernetSegment(
            self.sim,
            bandwidth_bps=bandwidth_bps,
            conditions=conditions,
            seed=self._rng.getrandbits(32),
        )
        self._segments[name] = (segment, IPAddress(network), prefix_len)
        self._next_host_octet[name] = 1
        return name

    def segment(self, name: str) -> EthernetSegment:
        """Access the raw segment object (e.g. to attach a sniffer tap)."""
        return self._segments[name][0]

    # -- hosts -------------------------------------------------------------------

    def add_host(
        self,
        name: str,
        segment: str,
        address: Optional[str] = None,
        cost_model: CostModel = FREE_CPU,
        forwarding: bool = False,
        mtu: int = 1500,
    ) -> Host:
        """Create a host attached to ``segment``."""
        if name in self.hosts:
            raise ValueError(f"host {name!r} already exists")
        host = Host(self.sim, name, cost_model=cost_model, forwarding=forwarding)
        self.attach_to_segment(host, segment, address, mtu)
        self.hosts[name] = host
        return host

    def attach_to_segment(self, host: Host, segment: str, address: Optional[str] = None, mtu: int = 1500) -> Interface:
        """Attach an existing host (e.g. a router) to another segment."""
        seg, net_addr, prefix_len = self._segments[segment]
        if address is None:
            octet = self._next_host_octet[segment]
            self._next_host_octet[segment] += 1
            addr = IPAddress(int(net_addr) + octet)
        else:
            addr = IPAddress(address)
        station_id = seg.attach(host.frame_arrived, addr)
        interface = Interface(
            address=addr,
            mtu=mtu,
            network=net_addr,
            prefix_len=prefix_len,
            transmit=lambda frame, next_hop: seg.send(station_id, frame, next_hop),
            name=f"{host.name}-eth{len(host.stack.interfaces)}",
        )
        host.add_interface(interface)
        return interface

    def add_router(self, name: str, segments: List[str], cost_model: CostModel = FREE_CPU) -> Host:
        """Create a forwarding host attached to several segments."""
        if not segments:
            raise ValueError("router needs at least one segment")
        router = self.add_host(name, segments[0], cost_model=cost_model, forwarding=True)
        for seg_name in segments[1:]:
            self.attach_to_segment(router, seg_name)
        return router

    def add_default_route(self, host: Host, gateway_segment: str, gateway: Host) -> None:
        """Point ``host``'s default route at ``gateway`` on a shared segment."""
        seg, net_addr, prefix_len = self._segments[gateway_segment]
        iface = None
        for candidate in host.stack.interfaces:
            if candidate.network == net_addr:
                iface = candidate
                break
        if iface is None:
            raise ValueError(f"{host.name} is not on segment {gateway_segment}")
        gw_addr = None
        for candidate in gateway.stack.interfaces:
            if candidate.network == net_addr:
                gw_addr = candidate.address
                break
        if gw_addr is None:
            raise ValueError(f"{gateway.name} is not on segment {gateway_segment}")
        host.stack.add_route(
            Route(network=IPAddress(0), prefix_len=0, interface=iface, gateway=gw_addr)
        )
