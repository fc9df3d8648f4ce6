"""Gateway tunnel mode tests (Section 7.1's host/gateway security)."""

import pytest

from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.ipv4 import IPv4Packet
from repro.netsim.sockets import TcpClient, TcpServer, UdpSocket


def build_site_to_site(seed=0):
    """Two LANs joined by FBS gateways across a WAN segment."""
    net = Network(seed=seed)
    net.add_segment("lan1", "10.0.1.0")
    net.add_segment("lan2", "10.0.2.0")
    net.add_segment("wan", "192.168.0.0")
    a = net.add_host("a", segment="lan1")
    b = net.add_host("b", segment="lan2")
    gw1 = net.add_router("gw1", segments=["lan1", "wan"])
    gw2 = net.add_router("gw2", segments=["lan2", "wan"])
    net.add_default_route(a, "lan1", gw1)
    net.add_default_route(b, "lan2", gw2)
    net.add_default_route(gw1, "wan", gw2)
    net.add_default_route(gw2, "wan", gw1)

    domain = FBSDomain(seed=seed + 40)
    t1 = domain.enroll_gateway(gw1)
    t2 = domain.enroll_gateway(gw2)
    t1.add_peer("10.0.2.0", 24, gw2.address)
    t2.add_peer("10.0.1.0", 24, gw1.address)
    return net, a, b, gw1, gw2, t1, t2


class TestSiteToSite:
    def test_udp_through_tunnel(self):
        net, a, b, _, _, t1, t2 = build_site_to_site(1)
        rx = UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"through the tunnel", b.address, 5000)
        net.sim.run()
        assert rx.received[0][0] == b"through the tunnel"
        assert t1.encapsulated == 1
        assert t2.decapsulated == 1

    def test_reverse_direction(self):
        net, a, b, _, _, t1, t2 = build_site_to_site(2)
        rx = UdpSocket(a, 5000)
        UdpSocket(b).sendto(b"coming back", a.address, 5000)
        net.sim.run()
        assert rx.received[0][0] == b"coming back"
        assert t2.encapsulated == 1

    def test_interior_hosts_need_no_keys(self):
        net, a, b, *_ = build_site_to_site(3)
        assert a.security is None and b.security is None
        rx = UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"unmodified hosts", b.address, 5000)
        net.sim.run()
        assert rx.received

    def test_wan_sees_only_gateway_addresses(self):
        net, a, b, gw1, gw2, _, _ = build_site_to_site(4)
        frames = []
        net.segment("wan").attach_tap(frames.append)
        UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"hide my endpoints", b.address, 5000)
        net.sim.run()
        endpoints = set()
        for frame in frames:
            packet = IPv4Packet.decode(frame)
            endpoints.add(packet.header.src)
            endpoints.add(packet.header.dst)
        # Traffic-flow confidentiality: interior addresses never appear.
        assert a.address not in endpoints
        assert b.address not in endpoints

    def test_wan_confidentiality(self):
        net, a, b, *_ = build_site_to_site(5)
        frames = []
        net.segment("wan").attach_tap(frames.append)
        UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"TUNNEL-PAYLOAD-SECRET", b.address, 5000)
        net.sim.run()
        assert all(b"TUNNEL-PAYLOAD-SECRET" not in frame for frame in frames)

    def test_lan_side_is_clear(self):
        # Gateway mode protects the WAN leg only: the LAN legs carry the
        # original packets (the coarser guarantee of Section 7.1's first
        # paragraph).
        net, a, b, *_ = build_site_to_site(6)
        frames = []
        net.segment("lan2").attach_tap(frames.append)
        UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"CLEAR-ON-LAN", b.address, 5000)
        net.sim.run()
        assert any(b"CLEAR-ON-LAN" in frame for frame in frames)

    def test_tcp_through_tunnel(self):
        net, a, b, *_ = build_site_to_site(7)
        server = TcpServer(b, 9000)
        client = TcpClient(a, b.address, 9000)
        payload = bytes(range(256)) * 60

        def go():
            client.send(payload)
            client.close()

        client.conn.on_connect = go
        net.sim.run(until=120.0)
        net.sim.run()
        assert bytes(server.received[0]) == payload

    def test_non_tunnel_traffic_forwarded_clear(self):
        # Traffic to a network with no tunnel peer forwards untouched.
        net, a, b, gw1, _, t1, _ = build_site_to_site(8)
        # a talks to gw1's own WAN-side network (no peer configured).
        wan_host = net.add_host("w", segment="wan")
        net.add_default_route(wan_host, "wan", gw1)
        rx = UdpSocket(wan_host, 5000)
        UdpSocket(a).sendto(b"no tunnel here", wan_host.address, 5000)
        net.sim.run()
        assert rx.received[0][0] == b"no tunnel here"
        assert t1.encapsulated == 0


class TestFlowGranularity:
    def test_per_conversation_flows(self):
        net, a, b, _, _, t1, _ = build_site_to_site(9)
        for port in (5000, 5001, 5002):
            UdpSocket(b, port)
        socks = [UdpSocket(a) for _ in range(3)]
        for i, sock in enumerate(socks):
            sock.sendto(b"conv", b.address, 5000 + i)
        net.sim.run()
        # Three end-to-end conversations = three tunnel flows, each with
        # its own key: a compromise exposes one conversation, not the
        # whole gateway pair.
        assert t1.endpoint.registry.counter("flows_started").value == 3


class TestTamper:
    def test_modified_tunnel_packet_rejected(self):
        net, a, b, gw1, gw2, t1, t2 = build_site_to_site(11)
        frames = []
        net.segment("wan").attach_tap(frames.append)
        rx = UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"genuine", b.address, 5000)
        net.sim.run()
        assert len(rx.received) == 1
        # Re-inject a corrupted copy of the tunnel packet at gw2.
        packet = IPv4Packet.decode(frames[0])
        packet.payload = packet.payload[:-1] + bytes([packet.payload[-1] ^ 1])
        packet.header.identification = 0xBEE
        gw2.stack.ip_input(packet.encode())
        assert t2.rejected == 1
        assert len(rx.received) == 1

    def test_requires_forwarding_host(self):
        net = Network(seed=12)
        net.add_segment("lan", "10.0.0.0")
        plain = net.add_host("plain", segment="lan")
        domain = FBSDomain(seed=13)
        with pytest.raises(ValueError):
            domain.enroll_gateway(plain)
