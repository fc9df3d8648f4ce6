"""Attack scenario regression tests (Sections 2.2, 6, 7.1)."""

import pytest

from repro.attacks import (
    run_compromise_analysis,
    run_cutpaste_attack,
    run_port_reuse_attack,
    run_replay_attack,
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


class TestReplay:
    def test_full_scenario(self):
        outcome = run_replay_attack(seed=10)
        assert outcome.original_delivered
        # Within the freshness window: replay accepted (Section 6.2's
        # documented residual exposure).
        assert outcome.replays_accepted_in_window == 1
        # Outside the window: the timestamp check rejects it.
        assert outcome.replays_accepted_after_window == 0
        assert outcome.stale_rejections >= 1

    def test_narrow_window_blocks_slow_replay(self):
        outcome = run_replay_attack(
            seed=11,
            freshness_half_window=1.0,
            replay_delay_in_window=0.5,
            replay_delay_after_window=120.0,
        )
        assert outcome.replays_accepted_in_window == 1
        assert outcome.replays_accepted_after_window == 0

    def test_unencrypted_mode_also_protected(self):
        outcome = run_replay_attack(seed=12, encrypt=False)
        assert outcome.replays_accepted_after_window == 0

    def test_replay_guard_extension_closes_in_window_case(self):
        outcome = run_replay_attack(seed=13, replay_guard_size=256)
        assert outcome.original_delivered
        assert outcome.replays_accepted_in_window == 0
        assert outcome.replays_accepted_after_window == 0


class TestCutPaste:
    def test_succeeds_against_basic_host_pair(self):
        outcome = run_cutpaste_attack("host-pair", seed=20)
        assert outcome.splice_delivered
        assert outcome.secret_leaked

    def test_fails_against_fbs(self):
        outcome = run_cutpaste_attack("fbs", seed=21)
        assert not outcome.splice_delivered
        assert not outcome.secret_leaked

    def test_fails_against_host_pair_with_mac(self):
        # The MAC (even keyed on the shared master key) catches splices.
        outcome = run_cutpaste_attack("host-pair-mac", seed=22)
        assert not outcome.splice_delivered

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_cutpaste_attack("rot13")


class TestPortReuse:
    def test_attack_succeeds_without_countermeasure(self):
        outcome = run_port_reuse_attack(countermeasure=False, seed=30)
        assert outcome.port_rebound
        assert outcome.plaintexts_recovered >= 1
        assert b"confidential" in outcome.recovered

    def test_wait_threshold_blocks_rebind(self):
        outcome = run_port_reuse_attack(countermeasure=True, seed=31)
        assert not outcome.port_rebound
        assert outcome.plaintexts_recovered == 0

    def test_stale_replay_fails_even_with_rebind(self):
        # A slow attacker loses the race against the freshness window:
        # the recorded datagrams go stale before the replay (minute
        # timestamp resolution means this takes minutes, not seconds).
        outcome = run_port_reuse_attack(
            countermeasure=False,
            seed=32,
            freshness_half_window=120.0,
            attack_delay=400.0,
        )
        assert outcome.port_rebound
        assert outcome.plaintexts_recovered == 0


class TestCompromise:
    def test_fbs_blast_radius_is_one_flow(self):
        report = run_compromise_analysis("fbs", flows=6, datagrams_per_flow=4, seed=40)
        assert report.flows_on_wire == 6
        # One stolen flow key decrypts exactly one flow's datagrams.
        assert report.decryptable_with_one_key == 4
        assert report.exposure == pytest.approx(1 / 6)

    def test_host_pair_blast_radius_is_everything(self):
        report = run_compromise_analysis("host-pair", flows=6, datagrams_per_flow=4, seed=41)
        assert report.exposure == 1.0

    def test_skip_blast_radius_is_everything_in_interval(self):
        report = run_compromise_analysis("skip", flows=6, datagrams_per_flow=4, seed=42)
        assert report.exposure == 1.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_compromise_analysis("tls")


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
