"""ttcp/rcp-style throughput measurement (Figure 8).

The paper: "We measure throughput using both ttcp and regular rcp" on
"Pentium 133s ... on a dedicated 10M Ethernet segment", comparing

* **GENERIC** -- regular 4.4BSD IP (~7,700 kb/s),
* **FBS NOP** -- FBS with nullified encryption and MAC, and
* **FBS DES+MD5** -- full data confidentiality (~3,400 kb/s).

``measure_udp_throughput`` is the ttcp analogue (UDP blast, goodput at
the receiver); ``measure_tcp_throughput`` is the rcp analogue (TCP bulk
copy).  Both run on the calibrated Pentium-133 cost model; see
:mod:`repro.netsim.costmodel` for the calibration anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.config import AlgorithmSuite, FBSConfig, MacAlgorithm
from repro.core.deploy import FBSDomain
from repro.netsim.costmodel import PENTIUM_133, CostModel
from repro.netsim.host import Host
from repro.netsim.network import Network
from repro.netsim.sockets import TcpClient, TcpServer, UdpSocket

__all__ = [
    "ThroughputResult",
    "setup_security",
    "measure_udp_throughput",
    "measure_tcp_throughput",
    "FIGURE8_CONFIGS",
]


@dataclass
class ThroughputResult:
    """One measurement: configuration and goodput."""

    configuration: str
    kind: str  # "ttcp" or "rcp"
    payload_bytes: int
    elapsed_seconds: float
    datagrams: int

    @property
    def kbps(self) -> float:
        """Goodput in kilobits per second (the Figure 8 unit)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.payload_bytes * 8 / self.elapsed_seconds / 1000.0


def setup_security(configuration: str, sender: Host, receiver: Host, seed: int = 0) -> None:
    """Install the named Figure 8 configuration on both hosts.

    ``generic`` installs nothing; ``fbs-nop`` installs FBS with the NULL
    MAC and no encryption; ``fbs-des-md5`` installs the full thing.
    """
    if configuration == "generic":
        return
    if configuration == "fbs-nop":
        config = FBSConfig(suite=AlgorithmSuite(mac=MacAlgorithm.NULL))
        encrypt = False
    elif configuration == "fbs-des-md5":
        config = FBSConfig()
        encrypt = True
    elif configuration == "fbs-md5":
        config = FBSConfig()
        encrypt = False
    else:
        raise ValueError(f"unknown configuration {configuration!r}")
    domain = FBSDomain(seed=seed + 100, config=config)
    domain.enroll_host(sender, encrypt_all=encrypt)
    domain.enroll_host(receiver, encrypt_all=encrypt)


#: The three bars of Figure 8 (plus the MAC-only intermediate point).
FIGURE8_CONFIGS = ("generic", "fbs-nop", "fbs-md5", "fbs-des-md5")


def _build_pair(
    seed: int, cost_model: CostModel, bandwidth_bps: float
) -> tuple:
    net = Network(seed=seed)
    net.add_segment("lan", "10.5.0.0", bandwidth_bps=bandwidth_bps)
    sender = net.add_host("sender", segment="lan", cost_model=cost_model)
    receiver = net.add_host("receiver", segment="lan", cost_model=cost_model)
    return net, sender, receiver


def _udp_blast(
    net: Network,
    sender: Host,
    receiver: Host,
    backlog: Callable[[], float],
    payload: bytes,
    total_bytes: int,
    configuration: str,
    kind: str,
) -> ThroughputResult:
    """A paced UDP blast from ``sender``, goodput at ``receiver``.

    ``backlog()`` is when the resources that pace the sender (its CPU,
    the wire, a gateway's CPU) are next free; the clock starts when the
    warm-up datagrams have arrived.
    """
    inbox = UdpSocket(receiver, 5001)
    outbox = UdpSocket(sender, 5002)
    count = max(1, total_bytes // len(payload))
    warmup = 2  # absorb one-time keying (upcall, modexp, PVC fetch)
    state = {"sent": 0}
    timing = {"start": None}

    def on_receive(_payload, _src, _sport) -> None:
        if len(inbox.received) == warmup:
            timing["start"] = net.sim.now

    inbox.on_receive = on_receive

    def pump() -> None:
        if state["sent"] >= count + warmup:
            return
        outbox.sendto(payload, receiver.address, 5001)
        state["sent"] += 1
        net.sim.schedule_at(max(net.sim.now, backlog()), pump)

    pump()
    net.sim.run()
    measured = max(0, len(inbox.received) - warmup)
    start = timing["start"] if timing["start"] is not None else 0.0
    return ThroughputResult(
        configuration=configuration,
        kind=kind,
        payload_bytes=measured * len(payload),
        elapsed_seconds=net.sim.now - start,
        datagrams=measured,
    )


def measure_udp_throughput(
    configuration: str,
    total_bytes: int = 500_000,
    payload_size: int = 8192,
    cost_model: CostModel = PENTIUM_133,
    bandwidth_bps: float = 10_000_000.0,
    seed: int = 0,
) -> ThroughputResult:
    """The ttcp measurement: a paced UDP blast, goodput at the receiver.

    The default ``payload_size`` of 8192 matches ttcp's default write
    size; each datagram fragments into six frames in *every*
    configuration, so fragmentation costs cancel out of the comparison
    (with 1460-byte writes, only the FBS configurations would fragment,
    biasing the penalty).
    """
    net, sender, receiver = _build_pair(seed, cost_model, bandwidth_bps)
    setup_security(configuration, sender, receiver, seed=seed)
    segment = net.segment("lan")
    return _udp_blast(
        net,
        sender,
        receiver,
        # Pace on whichever resource backs up: the sender CPU or the wire.
        lambda: max(sender.cpu_busy_until, segment.busy_until),
        b"\xa5" * payload_size,
        total_bytes,
        configuration,
        "ttcp",
    )


def measure_routed_udp_throughput(
    mode: str,
    total_bytes: int = 300_000,
    payload_size: int = 4096,
    cost_model: CostModel = PENTIUM_133,
    bandwidth_bps: float = 10_000_000.0,
    seed: int = 0,
) -> ThroughputResult:
    """Throughput across a two-LAN + WAN topology, per deployment mode.

    ``mode``: ``generic`` (no security), ``fbs-e2e`` (end hosts run the
    IP mapping; routers forward ciphertext), or ``fbs-gateway`` (plain
    hosts, gateways tunnel across the WAN).  Quantifies the deployment
    trade-off of Section 7.1: gateway mode spares the hosts but pays
    double encapsulation headers and gateway CPU.
    """
    net = Network(seed=seed)
    net.add_segment("lan1", "10.0.1.0", bandwidth_bps=bandwidth_bps)
    net.add_segment("lan2", "10.0.2.0", bandwidth_bps=bandwidth_bps)
    net.add_segment("wan", "192.168.0.0", bandwidth_bps=bandwidth_bps)
    sender = net.add_host("sender", segment="lan1", cost_model=cost_model)
    receiver = net.add_host("receiver", segment="lan2", cost_model=cost_model)
    gw1 = net.add_router("gw1", segments=["lan1", "wan"], cost_model=cost_model)
    gw2 = net.add_router("gw2", segments=["lan2", "wan"], cost_model=cost_model)
    net.add_default_route(sender, "lan1", gw1)
    net.add_default_route(receiver, "lan2", gw2)
    net.add_default_route(gw1, "wan", gw2)
    net.add_default_route(gw2, "wan", gw1)

    if mode == "fbs-e2e":
        domain = FBSDomain(seed=seed + 200)
        domain.enroll_host(sender, encrypt_all=True)
        domain.enroll_host(receiver, encrypt_all=True)
    elif mode == "fbs-gateway":
        domain = FBSDomain(seed=seed + 200)
        t1 = domain.enroll_gateway(gw1)
        t2 = domain.enroll_gateway(gw2)
        t1.add_peer("10.0.2.0", 24, gw2.address)
        t2.add_peer("10.0.1.0", 24, gw1.address)
    elif mode != "generic":
        raise ValueError(f"unknown mode {mode!r}")

    lan1 = net.segment("lan1")
    return _udp_blast(
        net,
        sender,
        receiver,
        lambda: max(sender.cpu_busy_until, lan1.busy_until, gw1.cpu_busy_until),
        b"\x3c" * payload_size,
        total_bytes,
        mode,
        "routed-ttcp",
    )


def measure_tcp_throughput(
    configuration: str,
    total_bytes: int = 1_000_000,
    cost_model: CostModel = PENTIUM_133,
    bandwidth_bps: float = 10_000_000.0,
    seed: int = 0,
) -> ThroughputResult:
    """The rcp measurement: a TCP bulk copy, timed to last delivery."""
    net, sender, receiver = _build_pair(seed, cost_model, bandwidth_bps)
    setup_security(configuration, sender, receiver, seed=seed)

    server = TcpServer(receiver, 514)  # rcp's shell port, for flavour
    client = TcpClient(sender, receiver.address, 514)
    payload = b"\x5a" * total_bytes
    done_at = {"time": None}

    def on_connect() -> None:
        client.send(payload)
        client.close()

    client.conn.on_connect = on_connect

    def on_data(_conn, _chunk) -> None:
        if server.received and len(server.received[0]) >= total_bytes:
            done_at["time"] = net.sim.now

    server.on_data = on_data
    net.sim.run(until=600.0)
    delivered = len(server.received[0]) if server.received else 0
    elapsed = done_at["time"] if done_at["time"] is not None else net.sim.now
    return ThroughputResult(
        configuration=configuration,
        kind="rcp",
        payload_bytes=delivered,
        elapsed_seconds=elapsed,
        datagrams=receiver.tcp.segments_received,
    )
