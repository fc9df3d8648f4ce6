"""Soft state invariants: caches may vanish at any time, traffic survives.

"It requires no hard state in either side for its operation ... key
caching can be used to speed up protocol processing, but the contents of
the cache represent only soft state." (Section 5.2)
"""

import pytest

from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.sockets import UdpSocket


def build(seed=0):
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    a = net.add_host("a", segment="lan")
    b = net.add_host("b", segment="lan")
    domain = FBSDomain(seed=seed + 900)
    ma = domain.enroll_host(a, encrypt_all=True)
    mb = domain.enroll_host(b, encrypt_all=True)
    return net, a, b, ma, mb


class TestSoftState:
    def test_receiver_cache_flush_mid_stream(self):
        net, a, b, ma, mb = build(1)
        rx = UdpSocket(b, 4000)
        tx = UdpSocket(a)
        tx.sendto(b"one", b.address, 4000)
        net.sim.run()
        mb.endpoint.flush_all_caches()  # receiver reboot-ish
        tx.sendto(b"two", b.address, 4000)
        net.sim.run()
        assert [p for p, _, _ in rx.received] == [b"one", b"two"]

    def test_sender_cache_flush_mid_flow_keeps_sfl_contract(self):
        net, a, b, ma, mb = build(2)
        rx = UdpSocket(b, 4000)
        tx = UdpSocket(a)
        tx.sendto(b"one", b.address, 4000)
        net.sim.run()
        # Flushing the sender's FAM restarts the flow with a new sfl;
        # the receiver just derives the new flow key. No breakage.
        ma.endpoint.flush_all_caches()
        tx.sendto(b"two", b.address, 4000)
        net.sim.run()
        assert len(rx.received) == 2
        assert mb.endpoint.registry.counter("flow_key_derivations", side="receive").value == 2

    def test_flush_both_sides_every_datagram(self):
        net, a, b, ma, mb = build(3)
        rx = UdpSocket(b, 4000)
        tx = UdpSocket(a)
        for i in range(5):
            ma.endpoint.flush_all_caches()
            mb.endpoint.flush_all_caches()
            tx.sendto(b"n=%d" % i, b.address, 4000)
            net.sim.run()
        assert len(rx.received) == 5

    def test_no_state_synchronization_needed(self):
        # The receiver never sends anything back at the FBS layer:
        # passive demultiplexing only.
        net, a, b, ma, mb = build(4)
        rx = UdpSocket(b, 4000)
        UdpSocket(a).sendto(b"x", b.address, 4000)
        net.sim.run()
        assert rx.received
        # Nothing on b's wire other than what applications sent: b sent 0
        # packets total.
        assert b.stack.stats.packets_sent == 0

    def test_cache_effectiveness_still_holds(self):
        # Soft state is an optimization: with no flushes, derivations
        # happen once per flow regardless of datagram count.
        net, a, b, ma, mb = build(5)
        rx = UdpSocket(b, 4000)
        tx = UdpSocket(a)
        for i in range(20):
            tx.sendto(b"d%d" % i, b.address, 4000)
        net.sim.run()
        assert len(rx.received) == 20
        assert ma.endpoint.registry.counter("flow_key_derivations", side="send").value == 1
        assert mb.endpoint.registry.counter("flow_key_derivations", side="receive").value == 1
        assert ma.endpoint.mkd.master_keys_computed == 1
