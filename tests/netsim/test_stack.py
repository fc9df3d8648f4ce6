"""IP stack tests: routing, hooks, forwarding, the 3-part structure."""

import pytest

from repro.netsim.addresses import IPAddress
from repro.netsim.clock import Simulator
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet
from repro.netsim.stack import Interface, IPStack, Route


def make_stack(address="10.0.0.1", forwarding=False):
    sim = Simulator()
    stack = IPStack(sim, forwarding=forwarding)
    sent = []
    iface = Interface(
        address=IPAddress(address),
        network=IPAddress("10.0.0.0"),
        prefix_len=24,
        transmit=lambda frame, next_hop: sent.append(frame),
    )
    stack.add_interface(iface)
    return sim, stack, sent, iface


def make_packet(src="10.0.0.1", dst="10.0.0.2", payload=b"data", **kw):
    return IPv4Packet(
        header=IPv4Header(
            src=IPAddress(src), dst=IPAddress(dst), proto=IPProtocol.UDP, **kw
        ),
        payload=payload,
    )


class TestOutput:
    def test_basic_send(self):
        _, stack, sent, _ = make_stack()
        assert stack.ip_output(make_packet())
        assert len(sent) == 1
        decoded = IPv4Packet.decode(sent[0])
        assert decoded.payload == b"data"

    def test_ip_id_allocated(self):
        _, stack, sent, _ = make_stack()
        stack.ip_output(make_packet())
        stack.ip_output(make_packet())
        ids = [IPv4Packet.decode(f).header.identification for f in sent]
        assert ids[0] != ids[1] and all(i != 0 for i in ids)

    def test_no_route(self):
        _, stack, sent, _ = make_stack()
        assert not stack.ip_output(make_packet(dst="192.168.9.9"))
        assert stack.stats.no_route == 1
        assert sent == []

    def test_longest_prefix_match(self):
        sim, stack, sent, iface = make_stack()
        other_sent = []
        other = Interface(
            address=IPAddress("10.0.1.1"),
            network=IPAddress("10.0.1.0"),
            prefix_len=24,
            transmit=lambda frame, next_hop: other_sent.append(frame),
        )
        stack.add_interface(other)
        stack.add_route(
            Route(network=IPAddress("0.0.0.0"), prefix_len=0, interface=iface)
        )
        stack.ip_output(make_packet(dst="10.0.1.5"))
        assert len(other_sent) == 1 and not sent
        stack.ip_output(make_packet(dst="8.8.8.8"))
        assert len(sent) == 1

    def test_next_hop_is_the_route_gateway_else_the_destination(self):
        _, stack, _, iface = make_stack()
        hops = []
        iface.transmit = lambda frame, next_hop: hops.append(next_hop)
        stack.add_route(
            Route(
                network=IPAddress("0.0.0.0"),
                prefix_len=0,
                interface=iface,
                gateway=IPAddress("10.0.0.254"),
            )
        )
        stack.ip_output(make_packet(dst="10.0.0.2"))  # on-link
        stack.ip_output(make_packet(dst="8.8.8.8"))  # via the default route
        assert hops == [IPAddress("10.0.0.2"), IPAddress("10.0.0.254")]

    def test_fragmentation_on_small_mtu(self):
        sim, stack, sent, iface = make_stack()
        iface.mtu = 600
        stack.ip_output(make_packet(payload=b"z" * 2000))
        assert len(sent) == 4
        assert stack.stats.fragments_created == 4

    def test_df_too_big_dropped(self):
        sim, stack, sent, iface = make_stack()
        iface.mtu = 600
        assert not stack.ip_output(make_packet(payload=b"z" * 2000, dont_fragment=True))
        assert stack.stats.bad_headers == 1


class TestOutputHook:
    def test_hook_rewrites_between_routing_and_fragmentation(self):
        sim, stack, sent, iface = make_stack()
        iface.mtu = 600

        def grow(packet):
            packet.payload = packet.payload + b"!" * 1000
            return packet

        stack.output_hook = grow
        stack.ip_output(make_packet(payload=b"z" * 100))
        # The hook ran before fragmentation: the grown payload fragmented.
        assert len(sent) == 2

    def test_hook_can_discard(self):
        _, stack, sent, _ = make_stack()
        stack.output_hook = lambda packet: None
        assert not stack.ip_output(make_packet())
        assert stack.stats.hook_discards == 1
        assert sent == []


class TestInput:
    def test_delivery_to_protocol(self):
        _, stack, _, _ = make_stack()
        got = []
        stack.register_protocol(IPProtocol.UDP, got.append)
        stack.ip_input(make_packet(src="10.0.0.2", dst="10.0.0.1").encode())
        assert len(got) == 1 and got[0].payload == b"data"
        assert stack.stats.packets_delivered == 1

    def test_not_local_not_forwarding_dropped(self):
        _, stack, _, _ = make_stack()
        got = []
        stack.register_protocol(IPProtocol.UDP, got.append)
        stack.ip_input(make_packet(src="10.0.0.2", dst="10.0.0.9").encode())
        assert got == []

    def test_malformed_counted(self):
        _, stack, _, _ = make_stack()
        stack.ip_input(b"\x45\x00garbage")
        assert stack.stats.bad_headers == 1

    def test_no_protocol_handler(self):
        _, stack, _, _ = make_stack()
        stack.ip_input(make_packet(src="10.0.0.2", dst="10.0.0.1").encode())
        assert stack.stats.no_protocol == 1

    def test_reassembly_before_dispatch(self):
        sim, stack, sent, iface = make_stack(address="10.0.0.2")
        got = []
        stack.register_protocol(IPProtocol.UDP, got.append)
        # Build fragments by sending through another stack with small MTU.
        _, sender, frames, siface = make_stack(address="10.0.0.1")
        siface.mtu = 600
        sender.ip_output(make_packet(payload=b"q" * 1500))
        assert len(frames) > 1
        for frame in frames:
            stack.ip_input(frame)
        assert len(got) == 1
        assert got[0].payload == b"q" * 1500


class TestInputHook:
    def test_hook_sees_reassembled_datagram(self):
        sim, stack, _, _ = make_stack(address="10.0.0.2")
        seen = []
        stack.input_hook = lambda p: (seen.append(len(p.payload)), p)[1]
        stack.register_protocol(IPProtocol.UDP, lambda p: None)
        _, sender, frames, siface = make_stack(address="10.0.0.1")
        siface.mtu = 600
        sender.ip_output(make_packet(payload=b"q" * 1500))
        for frame in frames:
            stack.ip_input(frame)
        assert seen == [1500]  # once, with the whole payload

    def test_hook_can_discard(self):
        _, stack, _, _ = make_stack()
        got = []
        stack.register_protocol(IPProtocol.UDP, got.append)
        stack.input_hook = lambda p: None
        stack.ip_input(make_packet(src="10.0.0.2", dst="10.0.0.1").encode())
        assert got == [] and stack.stats.hook_discards == 1


class TestForwarding:
    def _router(self):
        sim = Simulator()
        stack = IPStack(sim, forwarding=True)
        lan_frames, wan_frames = [], []
        lan = Interface(
            address=IPAddress("10.0.0.1"),
            network=IPAddress("10.0.0.0"),
            prefix_len=24,
            transmit=lambda frame, next_hop: lan_frames.append(frame),
        )
        wan = Interface(
            address=IPAddress("10.1.0.1"),
            network=IPAddress("10.1.0.0"),
            prefix_len=24,
            transmit=lambda frame, next_hop: wan_frames.append(frame),
        )
        stack.add_interface(lan)
        stack.add_interface(wan)
        return stack, lan_frames, wan_frames

    def test_forwards_and_decrements_ttl(self):
        stack, lan, wan = self._router()
        packet = make_packet(src="10.0.0.5", dst="10.1.0.9", ttl=10)
        stack.ip_input(packet.encode())
        assert len(wan) == 1
        assert IPv4Packet.decode(wan[0]).header.ttl == 9
        assert stack.stats.packets_forwarded == 1

    def test_ttl_exceeded_dropped(self):
        stack, lan, wan = self._router()
        packet = make_packet(src="10.0.0.5", dst="10.1.0.9", ttl=1)
        stack.ip_input(packet.encode())
        assert wan == []
        assert stack.stats.ttl_exceeded == 1

    def test_forwarding_bypasses_hooks(self):
        stack, lan, wan = self._router()
        calls = []
        stack.input_hook = lambda p: (calls.append("in"), p)[1]
        stack.output_hook = lambda p: (calls.append("out"), p)[1]
        stack.ip_input(make_packet(src="10.0.0.5", dst="10.1.0.9").encode())
        # FBS is end-to-end: forwarded packets see neither hook.
        assert calls == []
        assert len(wan) == 1
