"""Flow association mechanism tests (Figure 1 wiring)."""

import pytest

from repro.core.fam import DatagramAttributes, FlowAssociationMechanism
from repro.core.flows import FlowStateTable
from repro.core.policy import FiveTuplePolicy, ThresholdSweeper
from repro.netsim.addresses import FiveTuple, IPAddress


def make_attrs(sport=1000):
    ft = FiveTuple(
        proto=17,
        saddr=IPAddress("10.0.0.1"),
        sport=sport,
        daddr=IPAddress("10.0.0.2"),
        dport=53,
    )
    return DatagramAttributes(destination_id=ft.daddr.to_bytes(), five_tuple=ft, size=64)


class TestClassification:
    def test_produces_valid_entries(self):
        fam = FlowAssociationMechanism(mapper=FiveTuplePolicy())
        entry = fam.classify(make_attrs(), 0.0)
        assert entry.valid and entry.sfl != 0

    def test_stable_within_flow(self):
        fam = FlowAssociationMechanism(mapper=FiveTuplePolicy())
        a = fam.classify(make_attrs(), 0.0).sfl
        b = fam.classify(make_attrs(), 1.0).sfl
        assert a == b

    def test_distinct_across_conversations(self):
        fam = FlowAssociationMechanism(mapper=FiveTuplePolicy())
        a = fam.classify(make_attrs(sport=1), 0.0).sfl
        b = fam.classify(make_attrs(sport=2), 0.0).sfl
        assert a != b

    def test_invalid_mapper_output_caught(self):
        class BrokenMapper:
            def classify(self, attributes, now, fst, allocator):
                return fst.entry_at(0)  # never validated

        fam = FlowAssociationMechanism(mapper=BrokenMapper())
        with pytest.raises(RuntimeError):
            fam.classify(make_attrs(), 0.0)


class TestSweeperIntegration:
    def test_sweeper_runs_on_interval(self):
        policy = FiveTuplePolicy(threshold=None)
        sweeper = ThresholdSweeper(threshold=100.0)
        fam = FlowAssociationMechanism(mapper=policy)
        fam.configure_sweeper(sweeper, sweep_interval=60.0)
        fam.classify(make_attrs(sport=1), 0.0)
        fam.classify(make_attrs(sport=2), 50.0)  # no sweep yet
        assert fam.fst.expirations == 0
        fam.classify(make_attrs(sport=2), 200.0)  # sweep fires, expires sport=1
        assert fam.fst.expirations >= 1

    def test_no_sweeper_is_fine(self):
        fam = FlowAssociationMechanism(mapper=FiveTuplePolicy())
        fam.classify(make_attrs(), 1e6)  # no error without a sweeper


class TestAccounting:
    def test_active_flows(self):
        fam = FlowAssociationMechanism(mapper=FiveTuplePolicy())
        fam.classify(make_attrs(sport=1), 0.0)
        fam.classify(make_attrs(sport=2), 90.0)
        assert fam.active_flows(now=100.0, threshold=50.0) == 1
        assert fam.active_flows(now=100.0, threshold=200.0) == 2

    def test_flush(self):
        fam = FlowAssociationMechanism(mapper=FiveTuplePolicy())
        fam.classify(make_attrs(), 0.0)
        fam.flush()
        assert fam.active_flows(now=0.0, threshold=1e9) == 0

    def test_custom_fst(self):
        fst = FlowStateTable(4)
        fam = FlowAssociationMechanism(mapper=FiveTuplePolicy(), fst=fst)
        fam.classify(make_attrs(), 0.0)
        assert fst.new_flows == 1

    def test_seeded_sfl_space(self):
        fam1 = FlowAssociationMechanism(mapper=FiveTuplePolicy(), sfl_seed=1)
        fam2 = FlowAssociationMechanism(mapper=FiveTuplePolicy(), sfl_seed=2)
        assert fam1.classify(make_attrs(), 0.0).sfl != fam2.classify(make_attrs(), 0.0).sfl
