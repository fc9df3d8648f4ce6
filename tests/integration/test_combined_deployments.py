"""Combined deployments: layered and heterogeneous FBS configurations."""

import pytest

from repro.core.app_mapping import ApplicationDirectory, FBSApplication
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.netsim import Network
from repro.netsim.sockets import UdpSocket


class TestGatewayPlusEndToEnd:
    def test_double_protection_layers_compose(self):
        """End-to-end FBS *through* FBS gateway tunnels: the interior
        hosts encrypt end-to-end, the gateways wrap that ciphertext
        again for the WAN.  Both layers must compose transparently."""
        net = Network(seed=70)
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

        domain = FBSDomain(seed=71)
        fbs_a = domain.enroll_host(a, encrypt_all=True)
        fbs_b = domain.enroll_host(b, encrypt_all=True)
        t1 = domain.enroll_gateway(gw1)
        t2 = domain.enroll_gateway(gw2)
        t1.add_peer("10.0.2.0", 24, gw2.address)
        t2.add_peer("10.0.1.0", 24, gw1.address)

        rx = UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"belt and braces", b.address, 5000)
        net.sim.run()
        assert rx.received[0][0] == b"belt and braces"
        assert fbs_a.outbound_protected == 1
        assert t1.encapsulated == 1
        assert t2.decapsulated == 1
        assert fbs_b.inbound_accepted == 1

    def test_app_layer_through_gateways(self):
        """Application-layer FBS principals talking across gateway
        tunnels: three independent layers of the same protocol."""
        net = Network(seed=72)
        net.add_segment("lan1", "10.0.1.0")
        net.add_segment("lan2", "10.0.2.0")
        net.add_segment("wan", "192.168.0.0")
        h1 = net.add_host("h1", segment="lan1")
        h2 = net.add_host("h2", segment="lan2")
        gw1 = net.add_router("gw1", segments=["lan1", "wan"])
        gw2 = net.add_router("gw2", segments=["lan2", "wan"])
        net.add_default_route(h1, "lan1", gw1)
        net.add_default_route(h2, "lan2", gw2)
        net.add_default_route(gw1, "wan", gw2)
        net.add_default_route(gw2, "wan", gw1)

        domain = FBSDomain(seed=73)
        t1 = domain.enroll_gateway(gw1)
        t2 = domain.enroll_gateway(gw2)
        t1.add_peer("10.0.2.0", 24, gw2.address)
        t2.add_peer("10.0.1.0", 24, gw1.address)

        directory = ApplicationDirectory()
        sender_p = Principal.from_name("app-sender")
        receiver_p = Principal.from_name("app-receiver")
        sender = FBSApplication(
            h1, sender_p, domain.enroll_principal(sender_p), directory, sfl_seed=1
        )
        receiver = FBSApplication(
            h2, receiver_p, domain.enroll_principal(receiver_p), directory, sfl_seed=2
        )
        got = []
        receiver.on_receive = lambda body, src, tag: got.append(body)
        sender.send(b"layered all the way down", "app-receiver")
        net.sim.run()
        assert got == [b"layered all the way down"]
        assert t1.encapsulated >= 1

