"""Scale test: a full mesh of FBS hosts with concurrent conversations."""

import pytest

from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.sockets import UdpSocket


class TestFullMesh:
    N = 8
    ROUNDS = 10

    @pytest.fixture(scope="class")
    def mesh(self):
        net = Network(seed=90)
        net.add_segment("lan", "10.0.0.0", bandwidth_bps=1e9)
        hosts = [net.add_host(f"h{i}", segment="lan") for i in range(self.N)]
        domain = FBSDomain(seed=91)
        mappings = [domain.enroll_host(h, encrypt_all=True) for h in hosts]
        inboxes = {}
        for i, host in enumerate(hosts):
            sock = UdpSocket(host, 4000)
            inboxes[i] = sock
        senders = [UdpSocket(h) for h in hosts]
        for round_ in range(self.ROUNDS):
            for i, sender in enumerate(senders):
                for j, target in enumerate(hosts):
                    if i == j:
                        continue
                    sender.sendto(
                        b"mesh %d->%d r%d" % (i, j, round_), target.address, 4000
                    )
        net.sim.run()
        return hosts, mappings, inboxes

    def test_all_datagrams_delivered(self, mesh):
        hosts, mappings, inboxes = mesh
        expected_per_host = (self.N - 1) * self.ROUNDS
        for i, inbox in inboxes.items():
            assert len(inbox.received) == expected_per_host

    def test_no_authentication_failures(self, mesh):
        _, mappings, _ = mesh
        for mapping in mappings:
            assert mapping.endpoint.registry.counter("datagrams_rejected", reason="mac").value == 0
            assert mapping.inbound_rejected == 0

    def test_one_flow_per_peer_pair(self, mesh):
        _, mappings, _ = mesh
        for mapping in mappings:
            # Each host sends one conversation to each of N-1 peers.
            assert mapping.endpoint.registry.counter("flows_started").value == self.N - 1

    def test_master_keys_pairwise(self, mesh):
        _, mappings, _ = mesh
        for mapping in mappings:
            # One DH agreement per correspondent, send and receive
            # directions share the pair key.
            assert mapping.endpoint.mkd.master_keys_computed == self.N - 1

    def test_key_derivations_scale_with_flows_not_datagrams(self, mesh):
        _, mappings, _ = mesh
        total_datagrams = self.N * (self.N - 1) * self.ROUNDS
        total_derivations = sum(
            m.endpoint.registry.counter("flow_key_derivations", side="send").value
            + m.endpoint.registry.counter("flow_key_derivations", side="receive").value
            for m in mappings
        )
        # ~2 derivations per directed pair (one at each end) regardless
        # of how many datagrams flow; direct-mapped cache collisions
        # re-derive occasionally (soft state at work, not an error),
        # but the count stays far below one-per-datagram.
        floor = 2 * self.N * (self.N - 1)
        assert floor <= total_derivations
        assert total_derivations <= floor + 0.15 * total_datagrams
        assert total_derivations < total_datagrams / 2
