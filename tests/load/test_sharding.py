"""FlowSharder: stable, total, flow-affine partitioning (ISSUE 5).

The load-bearing property is the second test class: every datagram of a
flow lands on the same worker for *any* worker count, because the shard
function reads nothing but the canonical packed 5-tuple.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.sharding import FlowSharder
from repro.traces.registry import build_workload
from repro.netsim.addresses import FiveTuple, IPAddress

addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPAddress)
ports = st.integers(min_value=0, max_value=65535)
five_tuples = st.builds(
    FiveTuple,
    proto=st.sampled_from([1, 6, 17]),
    saddr=addresses,
    sport=ports,
    daddr=addresses,
    dport=ports,
)


class TestShardFunction:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            FlowSharder(0)

    def test_single_worker_owns_everything(self):
        sharder = FlowSharder(1)
        trace = build_workload("smoke", seed=0)
        assert sharder.filter_shard(trace, 0) == list(trace)

    @given(ft=five_tuples, workers=st.integers(min_value=1, max_value=16))
    @settings(max_examples=80, deadline=None)
    def test_total_and_in_range(self, ft, workers):
        shard = FlowSharder(workers).shard_of(ft)
        assert 0 <= shard < workers

    @given(ft=five_tuples, workers=st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_stable_across_instances(self, ft, workers):
        # Python's builtin hash is per-process randomized; the CRC-based
        # sharder must give the same answer from any fresh instance
        # (stand-in for "any process can recompute any owner").
        assert FlowSharder(workers).shard_of(ft) == FlowSharder(workers).shard_of(ft)


class TestFlowAffinity:
    @given(workers=st.integers(min_value=1, max_value=8), seed=st.integers(0, 3))
    @settings(max_examples=12, deadline=None)
    def test_every_datagram_of_a_flow_shares_a_worker(self, workers, seed):
        # The acceptance-criteria property: for any worker count, a
        # flow's datagrams are never split across workers.
        sharder = FlowSharder(workers)
        trace = build_workload("smoke", seed=seed)
        owner = {}
        for record in trace:
            ft = record.five_tuple
            shard = sharder.shard_of(ft)
            assert owner.setdefault(ft, shard) == shard

    def test_shards_partition_the_trace(self):
        trace = list(build_workload("smoke", seed=0))
        sharder = FlowSharder(4)
        shards = [sharder.filter_shard(trace, w) for w in range(4)]
        # Disjoint, exhaustive, and order-preserving within each shard.
        assert sum(len(s) for s in shards) == len(trace)
        seen = [r for s in shards for r in s]
        assert sorted(seen, key=trace.index) == trace
        for shard in shards:
            times = [r.time for r in shard]
            assert times == sorted(times)

    def test_filter_rejects_out_of_range_worker(self):
        sharder = FlowSharder(2)
        with pytest.raises(ValueError):
            sharder.filter_shard([], 2)
