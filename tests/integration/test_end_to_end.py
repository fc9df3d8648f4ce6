"""End-to-end integration: FBS over the full simulated stack."""

import pytest

from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.link import LinkConditions
from repro.netsim.sockets import TcpClient, TcpServer, UdpSocket


def build(seed=0, encrypt=True, conditions=None, config=None):
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0", conditions=conditions)
    a = net.add_host("alice", segment="lan")
    b = net.add_host("bob", segment="lan")
    domain = FBSDomain(seed=seed + 500, config=config)
    ma = domain.enroll_host(a, encrypt_all=encrypt)
    mb = domain.enroll_host(b, encrypt_all=encrypt)
    return net, a, b, ma, mb


class TestUdpOverFbs:
    def test_bidirectional_conversation(self):
        net, a, b, ma, mb = build(seed=1)
        a_inbox = UdpSocket(a, 4000)
        b_inbox = UdpSocket(b, 4000)
        UdpSocket(a).sendto(b"ping", b.address, 4000)
        UdpSocket(b).sendto(b"pong", a.address, 4000)
        net.sim.run()
        assert b_inbox.received[0][0] == b"ping"
        assert a_inbox.received[0][0] == b"pong"
        # Unidirectional flows: each side started its own.
        assert ma.endpoint.registry.counter("flows_started").value == 1
        assert mb.endpoint.registry.counter("flows_started").value == 1

    def test_many_conversations_many_flows(self):
        net, a, b, ma, _ = build(seed=2)
        for port in range(4100, 4110):
            UdpSocket(b, port)
        senders = [UdpSocket(a) for _ in range(10)]
        for i, sender in enumerate(senders):
            sender.sendto(b"data", b.address, 4100 + i)
        net.sim.run()
        assert ma.endpoint.registry.counter("flows_started").value == 10

    def test_fragmented_datagrams_protected_once(self):
        net, a, b, ma, mb = build(seed=3)
        rx = UdpSocket(b, 4000)
        blob = bytes(range(256)) * 24  # 6 KB
        UdpSocket(a).sendto(blob, b.address, 4000)
        net.sim.run()
        assert rx.received[0][0] == blob
        # FBS ran once per datagram, not per fragment.
        assert ma.endpoint.registry.counter("datagrams_sent").value == 1
        assert mb.endpoint.registry.counter("datagrams_received").value == 1
        assert a.stack.stats.fragments_created >= 4

    def test_lossy_network_delivers_what_arrives(self):
        net, a, b, _, mb = build(
            seed=4, conditions=LinkConditions(loss_probability=0.3)
        )
        rx = UdpSocket(b, 4000)
        tx = UdpSocket(a)
        for i in range(30):
            tx.sendto(b"msg %d" % i, b.address, 4000)
        net.sim.run()
        # Datagram semantics: what arrives decrypts; what is lost is lost.
        assert 0 < len(rx.received) < 30
        assert mb.endpoint.registry.counter("datagrams_rejected", reason="mac").value == 0

    def test_duplication_is_delivered_twice(self):
        # FBS preserves datagram semantics: benign duplication passes
        # (only replay outside the window is caught).
        net, a, b, _, _ = build(
            seed=5, conditions=LinkConditions(duplication_probability=1.0)
        )
        rx = UdpSocket(b, 4000)
        UdpSocket(a).sendto(b"dup", b.address, 4000)
        net.sim.run()
        assert len(rx.received) == 2


class TestTcpOverFbs:
    def test_interactive_session(self):
        net, a, b, _, _ = build(seed=6)
        server = TcpServer(b, 23)
        server.on_data = lambda conn, chunk: conn.send(b"echo " + chunk)
        client = TcpClient(a, b.address, 23)
        client.conn.on_connect = lambda: client.send(b"ls")
        net.sim.run()
        assert bytes(client.received) == b"echo ls"

    def test_bulk_transfer_lossy(self):
        net, a, b, _, _ = build(
            seed=7, conditions=LinkConditions(loss_probability=0.1)
        )
        server = TcpServer(b, 9000)
        client = TcpClient(a, b.address, 9000)
        blob = bytes(range(256)) * 100

        def go():
            client.send(blob)
            client.close()

        client.conn.on_connect = go
        net.sim.run(until=240.0)
        net.sim.run()
        assert bytes(server.received[0]) == blob


class TestMixedDeployment:
    def test_fbs_and_plain_hosts_coexist_on_segment(self):
        net = Network(seed=8)
        net.add_segment("lan", "10.0.0.0")
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        c = net.add_host("c", segment="lan")  # no security
        d = net.add_host("d", segment="lan")  # no security
        domain = FBSDomain(seed=9)
        domain.enroll_host(a, encrypt_all=True)
        domain.enroll_host(b, encrypt_all=True)
        secure_rx = UdpSocket(b, 4000)
        plain_rx = UdpSocket(d, 4000)
        UdpSocket(a).sendto(b"secure", b.address, 4000)
        UdpSocket(c).sendto(b"plain", d.address, 4000)
        net.sim.run()
        assert secure_rx.received[0][0] == b"secure"
        assert plain_rx.received[0][0] == b"plain"

    def test_router_forwards_fbs_transparently(self):
        net = Network(seed=10)
        net.add_segment("lan1", "10.0.1.0")
        net.add_segment("lan2", "10.0.2.0")
        a = net.add_host("a", segment="lan1")
        b = net.add_host("b", segment="lan2")
        router = net.add_router("r", segments=["lan1", "lan2"])
        net.add_default_route(a, "lan1", router)
        net.add_default_route(b, "lan2", router)
        domain = FBSDomain(seed=11)
        domain.enroll_host(a, encrypt_all=True)
        domain.enroll_host(b, encrypt_all=True)
        rx = UdpSocket(b, 4000)
        UdpSocket(a).sendto(b"across the router", b.address, 4000)
        net.sim.run()
        # "A forwarding router also will not see anything strange about
        # FBS processed IP packets."
        assert rx.received[0][0] == b"across the router"
        assert router.stack.stats.packets_forwarded == 1


class TestRekeyingEnd2End:
    def test_long_flow_rekeys_via_sfl_change(self):
        from repro.core.policy import RekeyingPolicy

        net, a, b, ma, mb = build(seed=12)
        # Wrap the sender's conversation policy with a rekeying budget.
        ma.endpoint.fam.mapper = RekeyingPolicy(ma.policy, after_datagrams=5)
        rx = UdpSocket(b, 4000)
        tx = UdpSocket(a)
        for i in range(12):
            tx.sendto(b"burst %d" % i, b.address, 4000)
        net.sim.run()
        assert len(rx.received) == 12  # receiver follows sfl changes blindly
        assert ma.endpoint.fam.mapper.rekeys >= 2
        # Receiver derived a fresh key per sfl epoch.
        assert mb.endpoint.registry.counter("flow_key_derivations", side="receive").value >= 3
