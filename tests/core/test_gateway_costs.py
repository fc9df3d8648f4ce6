"""Gateway tunnel CPU accounting: each side charges its own baseline.

Regression coverage for the decapsulation cost bug: ``_charge_crypto``
used to subtract the generic *send* cost on both paths, so under any
cost model where receive != send the decapsulating gateway was charged
as if it were sending.  With the symmetric calibrated model the two
baselines coincide, which is exactly why the bug survived -- these
tests pin the asymmetric case.
"""

import struct

import pytest

from repro.baselines import SCHEMES, install_scheme
from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.costmodel import PENTIUM_133, CostModel
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet
from repro.netsim.sockets import UdpSocket

#: Everything zero except the generic per-packet costs, which differ by
#: side: fbs_crypto(n) == generic_send(n) == 2 ms, generic_receive(n)
#: == 0.5 ms.  The encapsulation charge is therefore exactly 0 and the
#: decapsulation charge exactly 1.5 ms -- any cross-charging shows up
#: as a wrong CPU-second delta.
ASYMMETRIC = CostModel(
    per_packet=2e-3,
    per_byte_touch=0.0,
    per_byte_des=0.0,
    per_byte_md5=0.0,
    per_byte_touch_residual=0.0,
    fbs_per_packet=0.0,
    modexp=0.0,
    flow_key_derivation=0.0,
    upcall=0.0,
    certificate_fetch_rtt=0.0,
    per_packet_receive=0.5e-3,
)


def build_asymmetric_site_to_site(seed=0):
    net = Network(seed=seed)
    net.add_segment("lan1", "10.0.1.0")
    net.add_segment("lan2", "10.0.2.0")
    net.add_segment("wan", "192.168.0.0")
    a = net.add_host("a", segment="lan1")
    b = net.add_host("b", segment="lan2")
    gw1 = net.add_router("gw1", segments=["lan1", "wan"], cost_model=ASYMMETRIC)
    gw2 = net.add_router("gw2", segments=["lan2", "wan"], cost_model=ASYMMETRIC)
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


def _inner_udp_packet(a, b, payload=b"tunnel cost probe"):
    udp = struct.pack(">HHHH", 1234, 5000, 8 + len(payload), 0) + payload
    return IPv4Packet(
        header=IPv4Header(src=a.address, dst=b.address, proto=IPProtocol.UDP),
        payload=udp,
    )


class TestCostModelReceiveBaseline:
    def test_symmetric_by_default(self):
        model = CostModel()
        assert model.generic_receive(512) == model.generic_send(512)

    def test_per_packet_receive_overrides_only_the_fixed_cost(self):
        model = CostModel(per_packet=3e-4, per_packet_receive=1e-4)
        assert model.generic_send(100) == pytest.approx(
            3e-4 + model.per_byte_touch * 100
        )
        assert model.generic_receive(100) == pytest.approx(
            1e-4 + model.per_byte_touch * 100
        )

    def test_with_roundtrip(self):
        model = CostModel().with_(per_packet_receive=1e-4)
        assert model.generic_receive(0) == pytest.approx(1e-4)


class TestTunnelChargesItsOwnSide:
    def test_decapsulation_charges_the_receive_baseline(self):
        # Regression: the decap path used to subtract generic_send, so
        # under this model it charged nothing at all.
        net, a, b, gw1, gw2, t1, t2 = build_asymmetric_site_to_site(7)
        outer = t1._forward_hook(_inner_udp_packet(a, b))
        assert outer is not None and t1.encapsulated == 1

        payload_bytes = len(outer.payload) - t2.endpoint.header_size
        expected = max(
            0.0,
            ASYMMETRIC.fbs_crypto(payload_bytes, encrypt=True, mac=True)
            - ASYMMETRIC.generic_receive(payload_bytes),
        )
        assert expected == pytest.approx(1.5e-3)  # the model is rigged so

        before = gw2.cpu_seconds_used
        t2._tunnel_input(outer)
        delta = gw2.cpu_seconds_used - before
        assert t2.decapsulated == 1
        assert delta == pytest.approx(expected)

    def test_encapsulation_still_charges_the_send_baseline(self):
        net, a, b, gw1, gw2, t1, t2 = build_asymmetric_site_to_site(8)
        before = gw1.cpu_seconds_used
        outer = t1._forward_hook(_inner_udp_packet(a, b))
        delta = gw1.cpu_seconds_used - before
        assert outer is not None
        # fbs_crypto == generic_send under this model: zero extra.
        assert delta == pytest.approx(0.0)

    def test_charge_advances_the_cpu_busy_clock(self):
        # The charge lands on the simulated CPU, not just a counter:
        # the busy-until horizon moves by the same sim-clock delta.
        net, a, b, gw1, gw2, t1, t2 = build_asymmetric_site_to_site(9)
        outer = t1._forward_hook(_inner_udp_packet(a, b))
        busy_before = max(net.sim.now, gw2.cpu_busy_until)
        t2._tunnel_input(outer)
        assert gw2.cpu_busy_until - busy_before == pytest.approx(1.5e-3)


def _cpu_per_datagram(scheme, cost_model, datagrams=3):
    """(sender, receiver) CPU seconds per warm 1 KB datagram."""
    net = Network(seed=5)
    net.add_segment("lan", "10.0.0.0")
    a = net.add_host("a", segment="lan", cost_model=cost_model)
    b = net.add_host("b", segment="lan", cost_model=cost_model)
    install_scheme(scheme, (a, b), 60)
    rx = UdpSocket(b, 5000)
    tx = UdpSocket(a, 4000)
    tx.sendto(b"pays for the keying", b.address, 5000)
    net.sim.run()
    before = a.cpu_seconds_used, b.cpu_seconds_used
    for _ in range(datagrams):
        tx.sendto(bytes(1024), b.address, 5000)
    net.sim.run()
    assert len(rx.received) == 1 + datagrams
    return (
        (a.cpu_seconds_used - before[0]) / datagrams,
        (b.cpu_seconds_used - before[1]) / datagrams,
    )


@pytest.mark.parametrize("scheme", sorted(set(SCHEMES) - {"generic"}))
def test_every_ip_module_charges_the_receiver_against_the_receive_baseline(scheme):
    # ``frame_arrived`` charged generic_receive, so the module owes
    # fbs_crypto - generic_receive: what a secured datagram costs the
    # receiver in total does not depend on how cheap the plain receive
    # path is.  Regression: every IP-layer module subtracted
    # generic_send here and under-charged by per_packet -
    # per_packet_receive (180 us a datagram under this model).
    cheap_receive = PENTIUM_133.with_(per_packet_receive=1e-4)
    sender, receiver = _cpu_per_datagram(scheme, PENTIUM_133)
    sender_cheap, receiver_cheap = _cpu_per_datagram(scheme, cheap_receive)
    assert receiver_cheap == pytest.approx(receiver, abs=1e-9)
    assert sender_cheap == pytest.approx(sender, abs=1e-9)
    # ... and it is the full price, not the difference.
    assert receiver > PENTIUM_133.fbs_crypto(1024, mac=False)
