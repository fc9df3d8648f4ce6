"""The adversary's primitives and the scheme table the attacks run over.

What each attack achieves against each scheme is the matrix of
``test_grid.py``.
"""

import pytest

from repro.attacks import (
    run_compromise_analysis,
    run_cutpaste_attack,
    run_port_reuse_attack,
    run_replay_attack,
    run_traffic_analysis,
)
from repro.attacks.adversary import OnPathAdversary
from repro.baselines import SCHEMES, install_scheme
from repro.netsim import Network
from repro.netsim.sockets import UdpSocket


class TestAdversary:
    def test_captures_everything(self):
        net = Network(seed=1)
        net.add_segment("lan", "10.0.0.0")
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        adversary = OnPathAdversary(net.sim, net.segment("lan"))
        UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"observed", b.address, 5000)
        net.sim.run()
        assert len(adversary.captured) == 1
        packets = adversary.captured_packets()
        assert packets[0].header.src == a.address

    def test_injection_and_spoofing(self):
        net = Network(seed=2)
        net.add_segment("lan", "10.0.0.0")
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        adversary = OnPathAdversary(net.sim, net.segment("lan"))
        rx = UdpSocket(b, 5000)
        # Forge a datagram claiming to be from a.
        from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet
        from repro.netsim.udp import UDPHeader

        udp = UDPHeader(sport=999, dport=5000, length=8 + 6).encode() + b"forged"
        packet = IPv4Packet(
            header=IPv4Header(src=a.address, dst=b.address, proto=IPProtocol.UDP),
            payload=udp,
        )
        packet.header.identification = 77
        adversary.inject_packet(packet)
        net.sim.run()
        assert rx.received[0][0] == b"forged"
        assert rx.received[0][1] == a.address  # spoofed source accepted


class TestSchemeTable:
    """The attacks install whatever they are pointed at by name: a
    scheme is covered here by being listed in ``SCHEMES``."""

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_every_scheme_installs_and_round_trips_one_datagram(self, scheme):
        net = Network(seed=50)
        net.add_segment("lan", "10.0.0.0")
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        adversary = OnPathAdversary(net.sim, net.segment("lan"))
        modules = install_scheme(scheme, (a, b), 50)
        assert [a.security, b.security] == modules
        rx = UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"ONE-DATAGRAM", b.address, 5000)
        net.sim.run()
        assert [payload for payload, _, _ in rx.received] == [b"ONE-DATAGRAM"]
        on_the_wire = any(b"ONE-DATAGRAM" in frame for frame in adversary.captured)
        assert on_the_wire == (scheme == "generic")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            install_scheme("rot13", (), 0)

    @pytest.mark.parametrize(
        "attack",
        [run_replay_attack, run_cutpaste_attack, run_port_reuse_attack,
         run_compromise_analysis, run_traffic_analysis],  # fmt: skip
    )
    def test_every_attack_refuses_an_unknown_scheme(self, attack):
        with pytest.raises(ValueError):
            attack("rot13")
