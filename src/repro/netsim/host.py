"""A simulated host: CPU, IP stack, transports, and security hooks.

The host is where the cost model meets the protocol stack.  Every send
and receive charges the (single, serializing) CPU; packets leave for the
wire only when the CPU has finished with them, so end-to-end throughput
reflects whichever of CPU and wire is the bottleneck -- the quantity
Figure 8 measures.

Security processing (FBS or a baseline) is installed via
:meth:`Host.install_security`, which wires the module's hooks into the
stack's patch points and lets it charge additional CPU (crypto, key
derivation, upcalls) through :meth:`Host.charge_cpu`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.addresses import IPAddress
from repro.netsim.clock import HostClock, Simulator
from repro.netsim.costmodel import CostModel, FREE_CPU
from repro.netsim.ipv4 import IPProtocol, IPv4Packet
from repro.netsim.stack import Interface, IPStack
from repro.netsim.tcp import TcpLayer
from repro.netsim.udp import UdpLayer

__all__ = ["Host", "SecurityModule"]


class SecurityModule:
    """Interface for pluggable per-host security processing.

    FBS (:class:`repro.core.ip_mapping.FBSIPMapping`) and every baseline
    implement this.  ``outbound``/``inbound`` are installed as the
    stack's FBS hook points; ``header_overhead`` feeds the tcp_output MSS
    fix.
    """

    name = "abstract"

    def outbound(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        """Process a datagram leaving this host (or None to drop)."""
        raise NotImplementedError

    def inbound(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        """Process a datagram arriving at this host (or None to drop)."""
        raise NotImplementedError

    def header_overhead(self) -> int:
        """Bytes this module adds to each datagram."""
        return 0


class Host:
    """One simulated machine.

    Parameters
    ----------
    sim:
        Shared simulation clock.
    name:
        Human-readable hostname (also used as the default principal name
        in the security layer -- at the IP layer, principals are hosts).
    cost_model:
        CPU cost model; defaults to :data:`FREE_CPU` (functional tests).
    forwarding:
        Enables router behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cost_model: CostModel = FREE_CPU,
        forwarding: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.cost_model = cost_model
        #: This host's (possibly skewed) view of the shared clock.  The
        #: security layer reads time through it, so clock skew/drift
        #: faults reach FBS timestamping and freshness checks; the
        #: network and CPU models keep using the true ``sim`` clock.
        self.clock = HostClock(sim)
        self.stack = IPStack(sim, forwarding=forwarding)
        self._cpu_busy_until = 0.0
        self.security: Optional[SecurityModule] = None

        self.udp = UdpLayer(
            transmit=self.send_raw,
            local_address=self._source_address_for,
            now=lambda: sim.now,
        )
        self.stack.register_protocol(IPProtocol.UDP, self.udp.deliver)

        self.tcp = TcpLayer(
            sim=sim,
            transmit=self.send_raw,
            local_address=self._source_address_for,
            mtu_for=self._mtu_for,
        )
        self.stack.register_protocol(IPProtocol.TCP, self.tcp.deliver)

        self.stack.on_fragmentation_needed = self._fragmentation_needed
        #: Locally originated DF packets dropped for exceeding the MTU
        #: (the sender-side symptom of the paper's tcp_output bug).
        self.local_df_drops = 0

        self.cpu_seconds_used = 0.0

    # -- addressing -----------------------------------------------------------

    def add_interface(self, interface: Interface) -> None:
        """Attach a configured interface."""
        self.stack.add_interface(interface)

    @property
    def address(self) -> IPAddress:
        """Primary address (first interface)."""
        interfaces = self.stack.interfaces
        if not interfaces:
            raise RuntimeError(f"host {self.name} has no interfaces")
        return interfaces[0].address

    def _source_address_for(self, dst: IPAddress) -> IPAddress:
        route = self.stack.lookup_route(dst)
        if route is not None:
            return route.interface.address
        return self.address

    def _mtu_for(self, dst: IPAddress) -> int:
        route = self.stack.lookup_route(dst)
        if route is not None:
            return route.interface.mtu
        interfaces = self.stack.interfaces
        return interfaces[0].mtu if interfaces else 1500

    # -- CPU accounting ---------------------------------------------------------

    def charge_cpu(self, seconds: float) -> float:
        """Consume CPU; returns the virtual time the work completes.

        Work serializes: the CPU handles one thing at a time.  Security
        modules call this from inside the stack hooks to account for
        crypto and keying costs.
        """
        if seconds < 0:
            raise ValueError("negative CPU charge")
        start = max(self.sim.now, self._cpu_busy_until)
        self._cpu_busy_until = start + seconds
        self.cpu_seconds_used += seconds
        return self._cpu_busy_until

    @property
    def cpu_busy_until(self) -> float:
        """When the CPU becomes idle (>= now if busy)."""
        return self._cpu_busy_until

    # -- security installation ----------------------------------------------------

    def install_security(self, module: SecurityModule) -> None:
        """Install a security module into the stack's FBS hook points.

        This is the simulation analogue of the paper's two-line patches
        to ``ip_output.c`` and ``ip_input.c``, plus the ``tcp_output.c``
        MSS fix (the header reserve).
        """
        self.security = module
        self.stack.output_hook = module.outbound
        self.stack.input_hook = module.inbound
        self.tcp.header_reserve = module.header_overhead

    def metrics_snapshot(self) -> Optional[dict]:
        """The installed security module's metrics snapshot, if any.

        Works for any module whose ``endpoint`` exposes a metrics
        registry (FBS does); returns None for bare hosts and registry-
        less baselines.
        """
        module = self.security
        endpoint = getattr(module, "endpoint", None)
        registry = getattr(endpoint, "registry", None)
        if registry is None:
            return None
        return registry.snapshot()

    # -- transmit path (transport -> CPU charge -> ip_output) ---------------------

    def send_raw(self, packet: IPv4Packet) -> None:
        """Charge the CPU for one send, then hand ``packet`` to ``ip_output``.

        The transmit path of the UDP and TCP layers, and raw IP
        for a pre-built packet (used by tests and attacks).
        """
        cost = self.cost_model.generic_send(len(packet.payload))
        done = self.charge_cpu(cost)
        self.sim.schedule_at(done, lambda: self.stack.ip_output(packet))

    # -- receive path ----------------------------------------------------------------

    def _fragmentation_needed(self, packet: IPv4Packet) -> None:
        """DF packet too big: count it when this host originated it (a
        forwarded one is dropped silently; there is no ICMP)."""
        if self.stack.is_local(packet.header.src):
            self.local_df_drops += 1

    def frame_arrived(self, frame: bytes) -> None:
        """Entry point wired to the link/segment receiver."""
        cost = self.cost_model.generic_receive(max(0, len(frame) - 20))
        done = self.charge_cpu(cost)
        self.sim.schedule_at(done, lambda: self.stack.ip_input(frame))

    def __repr__(self) -> str:
        addr = self.stack.interfaces[0].address if self.stack.interfaces else "?"
        return f"Host({self.name!r}, {addr})"
