"""Socket wrapper tests."""

import pytest

from repro.netsim import Network
from repro.netsim.sockets import TcpClient, TcpServer, UdpSocket


def build_pair(seed=0):
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    return net, net.add_host("a", segment="lan"), net.add_host("b", segment="lan")


class TestUdpSocket:
    def test_receive_queue_and_callback(self):
        net, a, b = build_pair()
        rx = UdpSocket(b, 4000)
        callback_hits = []
        rx.on_receive = lambda p, s, sp: callback_hits.append(p)
        UdpSocket(a).sendto(b"one", b.address, 4000)
        net.sim.run()
        assert rx.received[0][0] == b"one"
        assert callback_hits == [b"one"]

    def test_ephemeral_port_assigned(self):
        _, a, _ = build_pair()
        sock = UdpSocket(a)
        assert sock.port >= 1024

    def test_close_releases_port(self):
        net, a, b = build_pair()
        sock = UdpSocket(a, 4000)
        sock.close()
        UdpSocket(a, 4000)  # no error

    def test_closed_socket_gets_nothing(self):
        net, a, b = build_pair()
        rx = UdpSocket(b, 4000)
        rx.close()
        UdpSocket(a).sendto(b"void", b.address, 4000)
        net.sim.run()
        assert rx.received == []


class TestTcpWrappers:
    def test_client_state_flags(self):
        net, a, b = build_pair()
        TcpServer(b, 80)
        client = TcpClient(a, b.address, 80)
        assert not client.connected
        net.sim.run()
        assert client.connected
        assert client.failure is None

    def test_server_collects_per_connection_buffers(self):
        net, a, b = build_pair()
        server = TcpServer(b, 80)
        c1 = TcpClient(a, b.address, 80)
        c2 = TcpClient(a, b.address, 80)
        c1.conn.on_connect = lambda: c1.send(b"first")
        c2.conn.on_connect = lambda: c2.send(b"second")
        net.sim.run()
        assert len(server.connections) == 2
        assert sorted(bytes(buf) for buf in server.received) == [b"first", b"second"]

    def test_server_echoes_close(self):
        net, a, b = build_pair()
        server = TcpServer(b, 80)
        client = TcpClient(a, b.address, 80)

        def go():
            client.send(b"bye")
            client.close()

        client.conn.on_connect = go
        net.sim.run()
        assert client.closed  # only after the server echoed the FIN

    def test_failure_reported(self):
        net, a, b = build_pair()
        client = TcpClient(a, b.address, 81)  # nothing listening
        net.sim.run(until=200.0)
        net.sim.run()
        assert client.failure is not None
