"""FBS-to-IP mapping tests (Section 7)."""

import pytest

from repro.core.deploy import FBSDomain
from repro.core.header import FBSHeader
from repro.core.ip_mapping import FBSIPMapping, extract_five_tuple
from repro.netsim import Network
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet, IPV4_HEADER_LEN
from repro.netsim.sockets import TcpClient, TcpServer, UdpSocket


class BeforeTheFix(FBSIPMapping):
    """The IP mapping as the paper first had it, before the
    ``tcp_output.c`` fix: TCP is told nothing of the FBS header, so
    exact-fit DF segments outgrow the MTU once it is inserted."""

    def header_overhead(self) -> int:
        return 0


def enroll_before_the_fix(domain, host):
    """``domain.enroll_host(host, encrypt_all=True)``, with the mapping
    swapped for :class:`BeforeTheFix` and reinstalled."""
    mapping = domain.enroll_host(host, encrypt_all=True)
    mapping.__class__ = BeforeTheFix
    host.install_security(mapping)
    return mapping


def build_fbs_pair(seed=0, encrypt=True, enroll=None):
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    a = net.add_host("a", segment="lan")
    b = net.add_host("b", segment="lan")
    domain = FBSDomain(seed=seed + 50)
    enroll = enroll or (lambda domain, host: domain.enroll_host(host, encrypt_all=encrypt))
    ma = enroll(domain, a)
    mb = enroll(domain, b)
    return net, a, b, ma, mb


class TestFiveTupleExtraction:
    def _packet(self, proto, payload):
        return IPv4Packet(
            header=IPv4Header(
                src=__import__("repro.netsim.addresses", fromlist=["IPAddress"]).IPAddress("10.0.0.1"),
                dst=__import__("repro.netsim.addresses", fromlist=["IPAddress"]).IPAddress("10.0.0.2"),
                proto=proto,
            ),
            payload=payload,
        )

    def test_udp_tuple(self):
        ft = extract_five_tuple(self._packet(IPProtocol.UDP, b"\x04\x00\x00\x35rest"))
        assert ft.sport == 1024 and ft.dport == 53

    def test_icmp_no_tuple(self):
        assert extract_five_tuple(self._packet(IPProtocol.ICMP, b"\x08\x00\x00\x00")) is None

    def test_short_payload_no_tuple(self):
        assert extract_five_tuple(self._packet(IPProtocol.TCP, b"\x01")) is None


class TestWireFormat:
    def test_fbs_header_between_ip_and_payload(self):
        net, a, b, ma, _ = build_fbs_pair(encrypt=False)
        frames = []
        net.segment("lan").attach_tap(frames.append)
        rx = UdpSocket(b, 4000)
        UdpSocket(a).sendto(b"observe me", b.address, 4000)
        net.sim.run()
        packet = IPv4Packet.decode(frames[0])
        # The IP header parses normally (routers see nothing strange) and
        # the FBS header leads the payload.
        header = FBSHeader.decode(packet.payload, ma.config.suite)
        assert header.sfl != 0
        # With MAC-only protection the transport bytes follow in clear.
        assert b"observe me" in packet.payload

    def test_total_length_fixed_up(self):
        net, a, b, ma, _ = build_fbs_pair(encrypt=False)
        frames = []
        net.segment("lan").attach_tap(frames.append)
        UdpSocket(b, 4000)
        UdpSocket(a).sendto(b"x" * 10, b.address, 4000)
        net.sim.run()
        packet = IPv4Packet.decode(frames[0])
        assert packet.header.total_length == IPV4_HEADER_LEN + len(packet.payload)
        assert len(packet.payload) == ma.endpoint.header_size + 8 + 10  # FBS + UDP + body


class TestEndToEnd:
    def test_udp_roundtrip_encrypted(self):
        net, a, b, _, mb = build_fbs_pair()
        rx = UdpSocket(b, 4000)
        UdpSocket(a).sendto(b"top secret", b.address, 4000)
        net.sim.run()
        assert rx.received[0][0] == b"top secret"
        assert mb.inbound_accepted == 1

    def test_flows_separate_by_conversation(self):
        net, a, b, ma, _ = build_fbs_pair()
        UdpSocket(b, 4000)
        UdpSocket(b, 4001)
        s1, s2 = UdpSocket(a, 3000), UdpSocket(a, 3001)
        s1.sendto(b"one", b.address, 4000)
        s2.sendto(b"two", b.address, 4001)
        s1.sendto(b"one again", b.address, 4000)
        net.sim.run()
        assert ma.endpoint.registry.counter("flows_started").value == 2
        assert ma.endpoint.registry.counter("datagrams_sent").value == 3

    def test_raw_ip_uses_host_level_flow(self):
        net, a, b, ma, mb = build_fbs_pair(encrypt=False)
        got = []
        b.stack.register_protocol(IPProtocol.FBS_RAW, got.append)
        from repro.netsim.addresses import IPAddress

        packet = IPv4Packet(
            header=IPv4Header(src=a.address, dst=b.address, proto=IPProtocol.FBS_RAW),
            payload=b"raw datagram",
        )
        a.send_raw(packet)
        net.sim.run()
        assert len(got) == 1 and got[0].payload == b"raw datagram"
        # The flow is keyed by the destination principal alone.
        keys = [e.key for e in ma.endpoint.fam.fst.entries() if e.valid]
        assert keys == [b.address.to_bytes()]

    def test_rejections_counted(self):
        net, a, b, _, mb = build_fbs_pair()
        frames = []
        net.segment("lan").attach_tap(frames.append)
        rx = UdpSocket(b, 4000)
        UdpSocket(a).sendto(b"payload", b.address, 4000)
        net.sim.run()
        # Corrupt and re-inject the captured frame.
        frame = bytearray(frames[0])
        frame[-1] ^= 0xFF
        packet = IPv4Packet.decode(bytes(frames[0]))
        packet.payload = packet.payload[:-1] + bytes([packet.payload[-1] ^ 1])
        b.stack.ip_input(packet.encode())
        assert mb.inbound_rejected == 1
        assert len(rx.received) == 1  # only the genuine datagram


class TestTcpFix:
    PAYLOAD = bytes(range(256)) * 150

    def _bulk(self, apply_fix, seed):
        net, a, b, *_ = build_fbs_pair(
            seed=seed, enroll=None if apply_fix else enroll_before_the_fix
        )
        server = TcpServer(b, 9000)
        client = TcpClient(a, b.address, 9000)

        def go():
            client.send(self.PAYLOAD)
            client.close()

        client.conn.on_connect = go
        net.sim.run(until=120.0)
        return len(server.received[0]) if server.received else 0, a

    def test_with_fix_completes(self):
        got, _ = self._bulk(apply_fix=True, seed=1)
        assert got == len(self.PAYLOAD)

    def test_without_fix_stalls(self):
        got, sender = self._bulk(apply_fix=False, seed=2)
        assert got < len(self.PAYLOAD)
        assert sender.stack.stats.bad_headers > 0  # DF drops, the paper's bug

    def test_header_overhead_includes_padding(self):
        net, a, *_ = build_fbs_pair(seed=3)
        # 32-byte header + worst-case 8-byte CBC pad.
        assert a.security.header_overhead() == 40

    def test_header_overhead_stream_mode_no_padding(self):
        from repro.core.config import AlgorithmSuite, CipherMode, FBSConfig

        net = Network(seed=4)
        net.add_segment("lan", "10.0.0.0")
        host = net.add_host("h", segment="lan")
        config = FBSConfig(suite=AlgorithmSuite(cipher_mode=CipherMode.CFB))
        domain = FBSDomain(seed=99, config=config)
        mapping = domain.enroll_host(host)
        assert mapping.header_overhead() == 32


class TestBypass:
    def test_certificate_port_bypasses_fbs(self):
        net, a, b, ma, mb = build_fbs_pair(encrypt=False)
        frames = []
        net.segment("lan").attach_tap(frames.append)
        rx = UdpSocket(b, 500)  # the certificate service port
        UdpSocket(a).sendto(b"cert request", b.address, 500)
        net.sim.run()
        assert rx.received[0][0] == b"cert request"
        # On the wire the bypass datagram is plain UDP, no FBS header.
        packet = IPv4Packet.decode(frames[0])
        assert b"cert request" in packet.payload
