"""Protocol 1 (ICMP's number) under FBS, and the sender-side DF drop count.

The simulator has no ICMP layer: a protocol-1 datagram is raw IP, and a
DF packet that does not fit is dropped without an answer.
"""

from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet
from repro.netsim.sockets import TcpClient, TcpServer

from tests.core.test_ip_mapping import enroll_before_the_fix


def build_pair(seed=0):
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    return net, net.add_host("a", segment="lan"), net.add_host("b", segment="lan")


class TestRawIp:
    def test_protocol_1_through_fbs(self):
        # Raw IP under FBS: classified as a host-level flow per footnote
        # 10, protected, and delivered to the protocol-1 handler.
        net, a, b = build_pair(seed=1)
        domain = FBSDomain(seed=2)
        fbs_a = domain.enroll_host(a, encrypt_all=True)
        fbs_b = domain.enroll_host(b, encrypt_all=True)
        got = []
        b.stack.register_protocol(IPProtocol.ICMP, got.append)
        a.send_raw(
            IPv4Packet(
                header=IPv4Header(src=a.address, dst=b.address, proto=IPProtocol.ICMP),
                payload=b"\x08\x00\x00\x00echo",
            )
        )
        net.sim.run()
        assert [packet.payload for packet in got] == [b"\x08\x00\x00\x00echo"]
        assert fbs_b.inbound_accepted == 1
        # No 5-tuple: the flow is keyed by the destination principal alone.
        keys = [e.key for e in fbs_a.endpoint.fam.fst.entries() if e.valid]
        assert keys == [b.address.to_bytes()]


class TestUnreachable:
    def test_local_df_drop_counted(self):
        # The paper's tcp_output bug shows up at the *sender's own*
        # stack; the host counts these locally.
        net, a, b = build_pair(seed=4)
        domain = FBSDomain(seed=5)
        enroll_before_the_fix(domain, a)
        enroll_before_the_fix(domain, b)
        TcpServer(b, 9000)
        client = TcpClient(a, b.address, 9000)
        client.conn.on_connect = lambda: client.send(bytes(10_000))
        net.sim.run(until=30.0)
        assert a.local_df_drops > 0
