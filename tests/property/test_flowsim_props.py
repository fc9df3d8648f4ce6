"""Property-based tests on flow simulation invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fam import DatagramAttributes
from repro.core.flows import SflAllocator, UnboundedFlowTable
from repro.core.policy import FiveTuplePolicy
from repro.netsim.addresses import FiveTuple, IPAddress
from repro.traces.analysis import FlowAnalysis
from repro.traces.flowsim import ExactFlowSimulator
from repro.traces.records import PacketRecord, Trace


def traces(max_packets=80):
    tuple_pool = st.integers(min_value=0, max_value=4)

    def build(entries):
        records = []
        for tuple_id, time, size in entries:
            records.append(
                PacketRecord(
                    time=time,
                    five_tuple=FiveTuple(
                        proto=17,
                        saddr=IPAddress("10.0.0.1"),
                        sport=1000 + tuple_id,
                        daddr=IPAddress("10.0.0.2"),
                        dport=53,
                    ),
                    size=size,
                )
            )
        trace = Trace(records)
        trace.sort()
        return trace

    return st.lists(
        st.tuples(
            tuple_pool,
            st.floats(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=1500),
        ),
        max_size=max_packets,
    ).map(build)


class TestConservation:
    @given(trace=traces(), threshold=st.floats(min_value=1.0, max_value=5000.0))
    @settings(max_examples=50, deadline=None)
    def test_packets_and_bytes_conserved(self, trace, threshold):
        flows = ExactFlowSimulator(threshold=threshold).run(trace)
        assert sum(f.packets for f in flows) == len(trace)
        assert sum(f.octets for f in flows) == trace.total_bytes

    @given(trace=traces(), threshold=st.floats(min_value=1.0, max_value=5000.0))
    @settings(max_examples=50, deadline=None)
    def test_flow_boundaries_well_formed(self, trace, threshold):
        flows = ExactFlowSimulator(threshold=threshold).run(trace)
        for flow in flows:
            assert flow.start <= flow.end
            assert flow.packets >= 1
            assert flow.duration <= trace.duration + 1e-9

    @given(trace=traces())
    @settings(max_examples=30, deadline=None)
    def test_flow_count_monotone_in_threshold(self, trace):
        # Larger THRESHOLD can only merge flows, never split them.
        counts = [
            len(ExactFlowSimulator(threshold=t).run(trace))
            for t in (10.0, 100.0, 1000.0, 100_000.0)
        ]
        assert counts == sorted(counts, reverse=True)

    @given(trace=traces())
    @settings(max_examples=30, deadline=None)
    def test_incarnations_sequential_per_tuple(self, trace):
        flows = ExactFlowSimulator(threshold=50.0).run(trace)
        by_tuple = {}
        for flow in sorted(flows, key=lambda f: f.start):
            by_tuple.setdefault(flow.five_tuple, []).append(flow.incarnation)
        for incarnations in by_tuple.values():
            assert incarnations == list(range(len(incarnations)))

    @given(trace=traces(), threshold=st.floats(min_value=1.0, max_value=5000.0))
    @settings(max_examples=30, deadline=None)
    def test_analysis_consistency(self, trace, threshold):
        analysis = FlowAnalysis.from_trace(trace, threshold=threshold)
        assert analysis.repeated_flows == analysis.total_flows - analysis.unique_conversations
        if analysis.total_flows:
            assert 0.0 <= analysis.bytes_carried_by_top_flows(0.5) <= 1.0


class TestMapperAgreesWithOracle:
    @given(trace=traces(), threshold=st.floats(min_value=1.0, max_value=5000.0))
    @settings(max_examples=50, deadline=None)
    def test_five_tuple_mapper_over_unbounded_table_is_exact(self, trace, threshold):
        # With collisions gone, the live mapper and the offline oracle
        # must agree exactly, not within a tolerance.
        fst = UnboundedFlowTable()
        policy = FiveTuplePolicy(threshold=threshold)
        allocator = SflAllocator(seed=5)
        for record in trace:
            attrs = DatagramAttributes(
                destination_id=record.five_tuple.daddr.to_bytes(),
                five_tuple=record.five_tuple,
                size=record.size,
            )
            policy.classify(attrs, record.time, fst, allocator)
        flows = ExactFlowSimulator(threshold=threshold).run(trace)
        assert fst.new_flows == len(flows)
        assert policy.repeated_flows == sum(1 for f in flows if f.incarnation > 0)
        assert fst.collision_evictions == 0
        assert fst.lookups == len(trace) == fst.matches + fst.new_flows
