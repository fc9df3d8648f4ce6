"""ICMP tests: echo, unreachable generation, and FBS interplay."""

import pytest

from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.icmp import (
    CODE_FRAG_NEEDED,
    TYPE_ECHO_REPLY,
    TYPE_ECHO_REQUEST,
    TYPE_UNREACHABLE,
    IcmpMessage,
)
from repro.netsim.sockets import TcpClient, TcpServer


def build_pair(seed=0):
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    return net, net.add_host("a", segment="lan"), net.add_host("b", segment="lan")


class TestMessageCodec:
    def test_roundtrip(self):
        message = IcmpMessage(
            type=TYPE_ECHO_REQUEST, code=0, identifier=7, sequence=3, payload=b"data"
        )
        decoded = IcmpMessage.decode(message.encode())
        assert decoded == message

    def test_checksum_detects_corruption(self):
        raw = bytearray(IcmpMessage(type=8, code=0, payload=b"x").encode())
        raw[-1] ^= 0xFF
        with pytest.raises(ValueError):
            IcmpMessage.decode(bytes(raw))

    def test_truncated(self):
        with pytest.raises(ValueError):
            IcmpMessage.decode(b"\x08\x00")


class TestEcho:
    def test_ping_reply(self):
        net, a, b = build_pair()
        replies = []
        a.icmp.ping(b.address, on_reply=replies.append)
        net.sim.run()
        assert replies == [b.address]
        assert b.icmp.echo_requests_answered == 1
        assert a.icmp.echo_replies_received == 1

    def test_concurrent_pings_demuxed(self):
        net, a, b = build_pair()
        hits = []
        a.icmp.ping(b.address, on_reply=lambda src: hits.append(1), sequence=1)
        a.icmp.ping(b.address, on_reply=lambda src: hits.append(2), sequence=1)
        net.sim.run()
        assert sorted(hits) == [1, 2]

    def test_ping_through_fbs(self):
        # Raw IP (ICMP) under FBS: classified as a host-level flow per
        # footnote 10, and still answered.
        net, a, b = build_pair(seed=1)
        domain = FBSDomain(seed=2)
        fbs_a = domain.enroll_host(a, encrypt_all=True)
        domain.enroll_host(b, encrypt_all=True)
        replies = []
        a.icmp.ping(b.address, on_reply=replies.append)
        net.sim.run()
        assert replies == [b.address]
        # The echo used the host-level policy (no 5-tuple available).
        assert fbs_a.endpoint.registry.counter("flows_started").value >= 1


class TestUnreachable:
    def test_router_reports_frag_needed(self):
        # A DF packet crossing a router onto a narrow segment triggers
        # ICMP type 3 code 4 back to the source.
        net = Network(seed=3)
        net.add_segment("lan1", "10.0.1.0")
        net.add_segment("lan2", "10.0.2.0")
        a = net.add_host("a", segment="lan1")
        b = net.add_host("b", segment="lan2")
        router = net.add_router("r", segments=["lan1", "lan2"])
        for iface in router.stack.interfaces:
            if str(iface.address).startswith("10.0.2"):
                iface.mtu = 576
        net.add_default_route(a, "lan1", router)
        net.add_default_route(b, "lan2", router)

        errors = []
        a.icmp.on_unreachable = lambda code, quote: errors.append(code)
        from repro.netsim.addresses import IPAddress
        from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet

        big = IPv4Packet(
            header=IPv4Header(
                src=a.address, dst=b.address, proto=IPProtocol.UDP, dont_fragment=True
            ),
            payload=b"z" * 1200,
        )
        a.send_raw(big)
        net.sim.run()
        assert errors == [CODE_FRAG_NEEDED]

    def test_local_df_drop_counted(self):
        # The paper's tcp_output bug shows up at the *sender's own*
        # stack; the host counts these locally.
        net, a, b = build_pair(seed=4)
        domain = FBSDomain(seed=5)
        domain.enroll_host(a, encrypt_all=True, apply_tcp_fix=False)
        domain.enroll_host(b, encrypt_all=True, apply_tcp_fix=False)
        TcpServer(b, 9000)
        client = TcpClient(a, b.address, 9000)
        client.conn.on_connect = lambda: client.send(bytes(10_000))
        net.sim.run(until=30.0)
        assert a.local_df_drops > 0
