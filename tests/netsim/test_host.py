"""Host tests: CPU accounting and security module installation."""

import pytest

from repro.netsim import Network
from repro.netsim.costmodel import CostModel
from repro.netsim.host import SecurityModule
from repro.netsim.sockets import UdpSocket


class _TagModule(SecurityModule):
    """Test module that tags payloads."""

    name = "tag"

    def __init__(self):
        self.out_count = 0
        self.in_count = 0

    def outbound(self, packet):
        self.out_count += 1
        packet.payload = b"TAG" + packet.payload
        return packet

    def inbound(self, packet):
        self.in_count += 1
        if not packet.payload.startswith(b"TAG"):
            return None
        packet.payload = packet.payload[3:]
        return packet

    def header_overhead(self):
        return 3


def build_pair(cost_model=None):
    net = Network(seed=0)
    net.add_segment("lan", "10.0.0.0")
    kwargs = {"cost_model": cost_model} if cost_model else {}
    a = net.add_host("a", segment="lan", **kwargs)
    b = net.add_host("b", segment="lan", **kwargs)
    return net, a, b


class TestCpuAccounting:
    def test_charges_serialize(self):
        net, a, _ = build_pair()
        t1 = a.charge_cpu(0.5)
        t2 = a.charge_cpu(0.25)
        assert t1 == 0.5
        assert t2 == 0.75
        assert a.cpu_seconds_used == 0.75

    def test_negative_charge_rejected(self):
        _, a, _ = build_pair()
        with pytest.raises(ValueError):
            a.charge_cpu(-1.0)

    def test_send_costs_delay_transmission(self):
        model = CostModel(per_packet=0.1, per_byte_touch=0.0)
        net, a, b = build_pair(cost_model=model)
        rx = UdpSocket(b, 5000)
        tx = UdpSocket(a)
        for _ in range(3):
            tx.sendto(b"x", b.address, 5000)
        net.sim.run()
        # Three sends at 100 ms each plus a receive each: > 0.3 s total.
        assert net.sim.now >= 0.3
        assert len(rx.received) == 3


class TestSecurityInstallation:
    def test_module_transforms_traffic(self):
        net, a, b = build_pair()
        module_a, module_b = _TagModule(), _TagModule()
        a.install_security(module_a)
        b.install_security(module_b)
        rx = UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"payload", b.address, 5000)
        net.sim.run()
        assert rx.received[0][0] == b"payload"
        assert module_a.out_count == 1
        assert module_b.in_count == 1

    def test_asymmetric_install_drops(self):
        # Receiver without the module sees tagged bytes at the transport
        # layer: UDP checksum fails (the tag corrupted the segment).
        net, a, b = build_pair()
        a.install_security(_TagModule())
        rx = UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"payload", b.address, 5000)
        net.sim.run()
        assert rx.received == []

    def test_header_reserve_wired_to_tcp(self):
        _, a, _ = build_pair()
        a.install_security(_TagModule())
        assert a.tcp.header_reserve() == 3

    def test_address_requires_interface(self):
        from repro.netsim.clock import Simulator
        from repro.netsim.host import Host

        host = Host(Simulator(), "floating")
        with pytest.raises(RuntimeError):
            _ = host.address
