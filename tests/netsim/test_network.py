"""Topology builder and routing tests."""

import pytest

from repro.netsim import Network
from repro.netsim.addresses import IPAddress
from repro.netsim.costmodel import FREE_CPU, PENTIUM_133
from repro.netsim.ipv4 import checksum16
from repro.netsim.link import LinkConditions
from repro.netsim.sockets import UdpSocket


class TestTopology:
    def test_sequential_addressing(self):
        net = Network()
        net.add_segment("lan", "10.0.0.0")
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        assert str(a.address) == "10.0.0.1"
        assert str(b.address) == "10.0.0.2"

    def test_explicit_address(self):
        net = Network()
        net.add_segment("lan", "10.0.0.0")
        host = net.add_host("x", segment="lan", address="10.0.0.99")
        assert str(host.address) == "10.0.0.99"

    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_segment("lan", "10.0.0.0")
        net.add_host("a", segment="lan")
        with pytest.raises(ValueError):
            net.add_host("a", segment="lan")
        with pytest.raises(ValueError):
            net.add_segment("lan", "10.1.0.0")

    def test_cost_model_attached(self):
        net = Network()
        net.add_segment("lan", "10.0.0.0")
        host = net.add_host("fast", segment="lan", cost_model=PENTIUM_133)
        assert host.cost_model is PENTIUM_133


class TestRouting:
    def _two_segment_net(self):
        net = Network(seed=1)
        net.add_segment("lan1", "10.0.1.0")
        net.add_segment("lan2", "10.0.2.0")
        a = net.add_host("a", segment="lan1")
        b = net.add_host("b", segment="lan2")
        router = net.add_router("r", segments=["lan1", "lan2"])
        net.add_default_route(a, "lan1", router)
        net.add_default_route(b, "lan2", router)
        return net, a, b, router

    def test_cross_segment_delivery(self):
        net, a, b, router = self._two_segment_net()
        rx = UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"routed", b.address, 5000)
        net.sim.run()
        assert rx.received[0][0] == b"routed"
        assert router.stack.stats.packets_forwarded == 1

    def test_reverse_path(self):
        net, a, b, router = self._two_segment_net()
        rx = UdpSocket(a, 5000)
        UdpSocket(b).sendto(b"back", a.address, 5000)
        net.sim.run()
        assert rx.received[0][0] == b"back"

    def _lan_with_router(self):
        net = Network()
        net.add_segment("lan", "10.0.1.0")
        net.add_segment("wan", "10.0.2.0")
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        router = net.add_router("r", ["lan", "wan"])
        return net, a, b, router

    def test_router_does_not_re_emit_overheard_on_link_traffic(self):
        # Regression: the router used to be handed a's frame for b, find
        # it "not local" and forward it back onto the lan, so b's binding
        # fired twice.
        net, a, b, router = self._lan_with_router()
        got = []
        b.udp.bind(9, lambda payload, src, sport: got.append(payload))
        a.udp.sendto(b"hello", 1234, b.address, 9)
        net.sim.run()
        assert got == [b"hello"]
        assert router.stack.stats.packets_forwarded == 0
        assert router.stack.stats.packets_received == 0

    def test_routed_datagram_still_crosses_the_router_once(self):
        net, a, b, router = self._lan_with_router()
        c = net.add_host("c", segment="wan")
        net.add_default_route(a, "lan", router)
        got = []
        c.udp.bind(9, lambda payload, src, sport: got.append(payload))
        a.udp.sendto(b"hello", 1234, c.address, 9)
        net.sim.run()
        assert got == [b"hello"]
        assert router.stack.stats.packets_forwarded == 1
        assert b.stack.stats.packets_received == 0

    def test_default_route_requires_shared_segment(self):
        net = Network()
        net.add_segment("lan1", "10.0.1.0")
        net.add_segment("lan2", "10.0.2.0")
        a = net.add_host("a", segment="lan1")
        b = net.add_host("b", segment="lan2")
        with pytest.raises(ValueError):
            net.add_default_route(a, "lan2", b)


class TestCostIsIndependentOfPopulation:
    """A frame interrupts the station it is sent to, however many share
    the segment: counts only, no timing."""

    POPULATIONS = (2, 8, 49)

    @staticmethod
    def _send_one(population, cost_model=FREE_CPU, conditions=None):
        net = Network(seed=3)
        net.add_segment("lan", "10.0.0.0", conditions=conditions)
        hosts = [
            net.add_host(f"h{i}", segment="lan", cost_model=cost_model)
            for i in range(population)
        ]
        hosts[1].udp.bind(9, lambda payload, src, sport: None)
        hosts[0].udp.sendto(b"x" * 256, 1234, hosts[1].address, 9)
        return net, hosts

    def test_pending_events_do_not_grow_with_stations(self):
        traces = []
        for population in self.POPULATIONS:
            net, _ = self._send_one(population)
            pending = [net.sim.pending()]
            while net.sim.step():
                pending.append(net.sim.pending())
            traces.append(pending)
        # ip_output, the one frame delivery, ip_input -- then nothing.
        assert traces[0] == traces[1] == traces[2] == [1, 1, 1, 0]

    def test_matching_a_frame_to_its_station_calls_no_address_method(self, monkeypatch):
        # Stations are matched on the address's integer recorded at
        # attach: one Python-level IPAddress.__eq__ per station per frame
        # was 49 calls a datagram on a gateway segment.
        net, hosts = self._send_one(49)
        calls = []
        original = IPAddress.__eq__
        monkeypatch.setattr(
            IPAddress, "__eq__", lambda a, b: calls.append(1) or original(a, b)
        )
        segment = net.segment("lan")
        segment.send(0, b"frame", hosts[1].address)
        assert calls == []

    def test_bystander_stacks_see_nothing(self):
        net, hosts = self._send_one(49)
        net.sim.run()
        assert hosts[1].stack.stats.packets_delivered == 1
        for bystander in hosts[2:]:
            assert bystander.stack.stats.packets_received == 0
            assert bystander.stack.stats.bad_headers == 0

    def test_bystander_cpu_is_not_charged(self):
        net, hosts = self._send_one(49, cost_model=PENTIUM_133)
        net.sim.run()
        assert hosts[0].cpu_seconds_used > 0 and hosts[1].cpu_seconds_used > 0
        for bystander in hosts[2:]:
            assert bystander.cpu_seconds_used == 0

    def test_damaged_ip_destination_is_still_counted_by_the_next_hop(self):
        # The next hop travels beside the frame: a bit flip in the IP
        # destination field cannot misdeliver it, so the addressed
        # station still counts the bad header (resilience.report's
        # ``bad_ip_headers``) and no bystander does.
        net, hosts = self._send_one(
            3, conditions=LinkConditions(corruption_probability=1.0)
        )
        wire = []
        net.segment("lan").attach_tap(wire.append)
        for _ in range(199):
            hosts[0].udp.sendto(b"", 1234, hosts[1].address, 9)
        net.sim.run()
        damaged_destination = [f for f in wire if f[16:20] != hosts[1].address.to_bytes()]
        damaged_header = [f for f in wire if checksum16(f[:20]) != 0]
        assert len(wire) == 200 and damaged_destination
        assert set(damaged_destination) <= set(damaged_header)
        assert hosts[1].stack.stats.bad_headers == len(damaged_header)
        assert hosts[1].stack.stats.packets_received == 200 - len(damaged_header)
        assert hosts[2].stack.stats.bad_headers == 0
        assert hosts[2].stack.stats.packets_received == 0
