"""Snapshot merging, and a replay's trace folding to its counters.

Merging disjoint registries has explicit semantics per instrument kind
(counters/gauges sum, histograms merge, derived hit ratios are
recomputed from merged counters), the operation is associative and
commutative, and a load replay's JSONL trace summarizes to the merged
totals of its sender and receiver.
"""

import io
import json

from repro.load.worker import WorkerSpec, run_worker
from repro.obs import JsonlSink, MetricsRegistry, merge_snapshots, parse_metric_key
from repro.obs.events import DatagramProtected

from tests.obs.helpers import fold_file
from tests.obs.test_registry import EVENT_DERIVED, event_counters


def snap_with(hits, misses):
    reg = MetricsRegistry()
    reg.counter("cache_hits", cache="TFKC").inc(hits)
    reg.counter("cache_misses", cache="TFKC").inc(misses)
    lookups = hits + misses
    reg.gauge("cache_hit_ratio", cache="TFKC").set(
        hits / lookups if lookups else 0.0
    )
    return reg.snapshot()


class TestParseMetricKey:
    def test_labeled_key(self):
        assert parse_metric_key("cache_hits{cache=TFKC,kind=cold}") == (
            "cache_hits",
            {"cache": "TFKC", "kind": "cold"},
        )

    def test_bare_key(self):
        assert parse_metric_key("datagrams_sent") == ("datagrams_sent", {})


class TestMergeSemantics:
    def test_counters_and_gauges_sum(self):
        a = MetricsRegistry()
        a.counter("datagrams_sent").inc(3)
        a.gauge("active_flows").set(2)
        b = MetricsRegistry()
        b.counter("datagrams_sent").inc(4)
        b.counter("datagrams_accepted").inc(1)
        b.gauge("active_flows").set(5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["datagrams_sent"] == 7
        assert merged["counters"]["datagrams_accepted"] == 1
        assert merged["gauges"]["active_flows"] == 7

    def test_histograms_merge_and_recompute_mean(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for value in (1.0, 3.0):
            a.histogram("mac_cost_seconds").observe(value)
        b.histogram("mac_cost_seconds").observe(8.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        hist = merged["histograms"]["mac_cost_seconds"]
        assert hist["count"] == 3
        assert hist["sum"] == 12.0
        assert hist["mean"] == 4.0
        assert hist["min"] == 1.0
        assert hist["max"] == 8.0
        singles = [
            s["histograms"]["mac_cost_seconds"]
            for s in (a.snapshot(), b.snapshot())
        ]
        for bucket, count in hist["buckets"].items():
            assert count == sum(s["buckets"][bucket] for s in singles)

    def test_hit_ratio_recomputed_not_summed(self):
        # 9/10 and 1/10 must merge to 10/20 = 0.5, not 0.9 + 0.1 = 1.0.
        merged = merge_snapshots([snap_with(9, 1), snap_with(1, 9)])
        assert merged["gauges"]["cache_hit_ratio{cache=TFKC}"] == 0.5

    def test_identity_associative_commutative(self):
        snaps = [snap_with(9, 1), snap_with(1, 9), snap_with(5, 5)]
        assert merge_snapshots([snaps[0]]) == snaps[0]
        left = merge_snapshots([merge_snapshots(snaps[:2]), snaps[2]])
        right = merge_snapshots([snaps[0], merge_snapshots(snaps[1:])])
        assert left == right
        assert merge_snapshots(snaps) == merge_snapshots(snaps[::-1])


class TestShardTaggedSink:
    def test_untagged_sink_unchanged(self):
        # A record is the event's own fields: no shard tag, nothing added.
        buffer = io.StringIO()
        event = DatagramProtected(sfl=1, size=10, secret=False)
        JsonlSink(buffer).emit(event)
        record = json.loads(buffer.getvalue())
        assert "shard" not in record
        assert record == json.loads(json.dumps(event.to_dict()))


class TestSummarizeParity:
    def test_a_replay_trace_summarizes_to_its_run_counters(self, tmp_path):
        # The CLI contract: summarize load.jsonl == the run's merged
        # registry counters, on every counter a trace can reproduce.
        result = run_worker(
            WorkerSpec(worker=0, workers=1, workload="smoke", trace_dir=str(tmp_path))
        )
        folded = event_counters(fold_file(tmp_path / "load.jsonl").snapshot())
        assert folded == event_counters(result["snapshot"])
        assert {parse_metric_key(key)[0] for key in folded} >= EVENT_DERIVED - {
            "gateway_tenants_admitted", "gateway_tenants_evicted",
            "soft_state_flushes", "datagrams_rejected", "cache_evictions",
        }
