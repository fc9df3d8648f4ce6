"""Failure injection: adverse networks, rekeying mid-stream, small MTUs."""

import pytest

from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.link import LinkConditions
from repro.netsim.sockets import TcpClient, TcpServer, UdpSocket


class TestAdverseNetwork:
    def test_loss_dup_reorder_together(self):
        net = Network(seed=50)
        net.add_segment(
            "lan",
            "10.0.0.0",
            conditions=LinkConditions(
                loss_probability=0.1,
                duplication_probability=0.1,
                reorder_jitter=0.005,
            ),
        )
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        domain = FBSDomain(seed=51)
        domain.enroll_host(a, encrypt_all=True)
        fbs_b = domain.enroll_host(b, encrypt_all=True)
        rx = UdpSocket(b, 4000)
        tx = UdpSocket(a)
        for i in range(40):
            tx.sendto(b"datagram %02d" % i, b.address, 4000)
        net.sim.run()
        # Loss and duplication change the count; nothing inauthentic
        # gets through and nothing authentic is rejected.
        rejected = fbs_b.endpoint.registry.counter
        assert rejected("datagrams_rejected", reason="mac").value == 0
        assert rejected("datagrams_rejected", reason="stale_timestamp").value == 0
        payloads = {p for p, _, _ in rx.received}
        assert payloads <= {b"datagram %02d" % i for i in range(40)}
        assert len(payloads) > 10

    def test_tcp_bulk_over_awful_network_with_fbs(self):
        net = Network(seed=52)
        net.add_segment(
            "lan",
            "10.0.0.0",
            conditions=LinkConditions(loss_probability=0.12, reorder_jitter=0.002),
        )
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        domain = FBSDomain(seed=53)
        domain.enroll_host(a, encrypt_all=True)
        domain.enroll_host(b, encrypt_all=True)
        server = TcpServer(b, 9000)
        client = TcpClient(a, b.address, 9000)
        blob = bytes(range(256)) * 120

        def go():
            client.send(blob)
            client.close()

        client.conn.on_connect = go
        net.sim.run(until=300.0)
        net.sim.run()
        assert bytes(server.received[0]) == blob


class TestRekeyingRecovery:
    def test_private_value_rotation_recovers_via_soft_state(self):
        net = Network(seed=54)
        net.add_segment("lan", "10.0.0.0")
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        domain = FBSDomain(seed=55)
        fbs_a = domain.enroll_host(a, encrypt_all=True)
        fbs_b = domain.enroll_host(b, encrypt_all=True)

        rx = UdpSocket(b, 4000)
        tx = UdpSocket(a)
        tx.sendto(b"before rotation", b.address, 4000)
        net.sim.run()
        assert len(rx.received) == 1

        # Bob rotates his long-term private value (the paper's guard
        # against sfl-counter wrap): new key, new certificate published.
        from repro.core.keying import Principal
        from repro.crypto.dh import DHPrivateKey

        new_key = DHPrivateKey.generate(domain.group, domain.rng)
        bob_principal = Principal.from_ip(b.address)
        domain.directory.publish(domain.ca.issue(bob_principal, new_key))
        fbs_b.endpoint.mkd.change_private_value(new_key)
        # Note: derived flow keys are soft state too -- had bob kept his
        # RFKC, the old flow key would keep working until evicted.
        # Rotation in practice happens at reboot, which clears it:
        fbs_b.endpoint.flush_all_caches()

        # Alice's cached pair key is now stale: her datagrams fail at bob.
        tx.sendto(b"stale keyed", b.address, 4000)
        net.sim.run()
        assert len(rx.received) == 1
        assert fbs_b.inbound_rejected >= 1

        # Everything is soft state: alice flushes, re-fetches the new
        # certificate, re-derives, and traffic resumes -- no protocol
        # messages, no handshake.
        fbs_a.endpoint.flush_all_caches()
        tx.sendto(b"after recovery", b.address, 4000)
        net.sim.run()
        assert [p for p, _, _ in rx.received] == [b"before rotation", b"after recovery"]


class TestSmallMtuPaths:
    def test_gateway_tunnel_over_narrow_wan(self):
        # Full-size interior packets cross a WAN whose MTU is smaller
        # than the LAN's: outer tunnel packets fragment and the peer
        # gateway reassembles before decapsulating.
        net = Network(seed=56)
        net.add_segment("lan1", "10.0.1.0")
        net.add_segment("lan2", "10.0.2.0")
        net.add_segment("wan", "192.168.0.0")
        a = net.add_host("a", segment="lan1")
        b = net.add_host("b", segment="lan2")
        gw1 = net.add_router("gw1", segments=["lan1", "wan"])
        gw2 = net.add_router("gw2", segments=["lan2", "wan"])
        # Narrow the WAN interfaces.
        for gw in (gw1, gw2):
            for iface in gw.stack.interfaces:
                if str(iface.address).startswith("192"):
                    iface.mtu = 576
        net.add_default_route(a, "lan1", gw1)
        net.add_default_route(b, "lan2", gw2)
        net.add_default_route(gw1, "wan", gw2)
        net.add_default_route(gw2, "wan", gw1)
        domain = FBSDomain(seed=57)
        t1 = domain.enroll_gateway(gw1)
        t2 = domain.enroll_gateway(gw2)
        t1.add_peer("10.0.2.0", 24, gw2.address)
        t2.add_peer("10.0.1.0", 24, gw1.address)

        rx = UdpSocket(b, 4000)
        blob = bytes(range(256)) * 4  # 1024 B: one LAN packet, many WAN frags
        UdpSocket(a).sendto(blob, b.address, 4000)
        net.sim.run()
        assert rx.received[0][0] == blob
        assert gw1.stack.stats.fragments_created >= 2

    def test_end_to_end_fbs_with_small_mtu_everywhere(self):
        net = Network(seed=58)
        net.add_segment("lan", "10.0.0.0")
        a = net.add_host("a", segment="lan", mtu=576)
        b = net.add_host("b", segment="lan", mtu=576)
        domain = FBSDomain(seed=59)
        domain.enroll_host(a, encrypt_all=True)
        domain.enroll_host(b, encrypt_all=True)
        server = TcpServer(b, 9000)
        client = TcpClient(a, b.address, 9000)
        blob = bytes(range(256)) * 30

        def go():
            client.send(blob)
            client.close()

        client.conn.on_connect = go
        net.sim.run()
        assert bytes(server.received[0]) == blob
        # MSS shrank to fit MTU minus all reserves; no DF drops occurred.
        assert a.stack.stats.bad_headers == 0
