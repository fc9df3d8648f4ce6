"""Load engine: ledger invariants and the merge-exactness tentpole.

The headline property (acceptance criteria of ISSUE 5): the merged
metrics of an N-worker run equal the single-process run exactly, over
the shard-invariant view (MKC/PVC instruments excluded -- N endpoint
pairs do N master-key exchanges where one pair does one).
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load import engine
from repro.load.engine import LoadError, LoadSpec, check_invariants, run_load, verify_merge
from repro.load.report import build_report
from repro.load.worker import WorkerSpec, run_worker, shard_invariant_view
from repro.obs.report import render_report


def smoke_spec(**kw):
    kw.setdefault("workload", "smoke")
    kw.setdefault("inline", True)
    return LoadSpec(**kw)


class TestLedger:
    def test_shards_cover_the_workload(self):
        run = run_load(smoke_spec(workers=3))
        results = run["workers"]
        assert [r["worker"] for r in results] == [0, 1, 2]
        assert sum(r["datagrams"] for r in results) == 600
        assert sum(r["sent"] for r in results) == 600
        # Clean replay: everything sent is received and accepted.
        for r in results:
            assert r["received"] == r["accepted"] + sum(r["rejected"].values())
        assert run["merged"]["counters"]["datagrams_accepted"] == 600

    def test_check_invariants_catches_ledger_break(self):
        run = run_load(smoke_spec(workers=2))
        broken = copy.deepcopy(run)
        broken["workers"][0]["received"] += 1
        with pytest.raises(LoadError, match="received"):
            check_invariants(broken)

    def test_check_invariants_catches_aggregate_ledger_break(self):
        run = run_load(smoke_spec(workers=2))
        broken = copy.deepcopy(run)
        broken["merged"]["counters"]["datagrams_received"] += 1
        with pytest.raises(LoadError, match="aggregate"):
            check_invariants(broken)

    def test_check_invariants_catches_received_merge_drift(self):
        # The merged ledger balances but no longer sums the shards'.
        run = run_load(smoke_spec(workers=2))
        broken = copy.deepcopy(run)
        broken["merged"]["counters"]["datagrams_received"] += 1
        broken["merged"]["counters"]["datagrams_accepted"] += 1
        with pytest.raises(LoadError, match="merged received"):
            check_invariants(broken)

    def test_check_invariants_catches_accepted_merge_drift(self):
        # Each shard balances, the sums of received agree, but one shard
        # calls a datagram rejected that the merge counts accepted.
        run = run_load(smoke_spec(workers=2))
        broken = copy.deepcopy(run)
        broken["workers"][0]["accepted"] -= 1
        broken["workers"][0]["rejected"]["mac"] = 1
        with pytest.raises(LoadError, match="merged accepted"):
            check_invariants(broken)

    def test_check_invariants_catches_eviction(self):
        run = run_load(smoke_spec(workers=2))
        broken = copy.deepcopy(run)
        broken["merged"]["counters"]["cache_evictions{cache=TFKC}"] = 1
        with pytest.raises(LoadError, match="eviction"):
            check_invariants(broken)


class TestMergeExactness:
    @given(workers=st.integers(min_value=2, max_value=4), seed=st.integers(0, 2))
    @settings(max_examples=6, deadline=None)
    def test_merged_equals_single_process(self, workers, seed):
        run = verify_merge(smoke_spec(workers=workers, seed=seed))
        assert run["merge_check"]["result"] == "exact"
        assert run["merge_check"]["compared_counters"] > 0

    def test_merge_exact_with_encryption(self):
        run = verify_merge(smoke_spec(workers=2, secret=True))
        assert run["merge_check"]["result"] == "exact"

    def test_a_merge_that_miscounts_is_caught(self, monkeypatch):
        real = engine.merge_snapshots

        def miscounting(snapshots):
            merged = real(snapshots)
            if len(snapshots) > 1:
                merged["counters"]["flows_started"] += 1
            return merged

        monkeypatch.setattr(engine, "merge_snapshots", miscounting)
        with pytest.raises(LoadError, match=r"merge mismatch at counters\[flows_started\]"):
            verify_merge(smoke_spec(workers=2))

    def test_pair_scoped_caches_are_excluded_not_dropped(self):
        run = run_load(smoke_spec(workers=2))
        merged = run["merged"]
        view = shard_invariant_view(merged)
        mkc_keys = [k for k in merged["counters"] if "cache=MKC" in k]
        assert mkc_keys, "expected MKC instruments in the merged snapshot"
        assert all(k not in view["counters"] for k in mkc_keys)
        # The invariant view still carries the flow-key caches.
        assert any("tfkc" in k.lower() for k in view["counters"])


class TestWorkerDeterminism:
    def test_worker_result_is_a_pure_function_of_its_spec(self):
        spec = WorkerSpec(worker=1, workers=3, workload="smoke", seed=2)
        assert run_worker(spec) == run_worker(spec)

    def test_inline_matches_subprocess_fanout(self):
        # The real multiprocessing path (spawn start method) must
        # produce bit-identical results to the in-process path; this is
        # the fork-safety story made testable.
        inline = run_load(smoke_spec(workers=2, datagrams=200))
        spawned = run_load(
            LoadSpec(workers=2, workload="smoke", datagrams=200, inline=False)
        )
        assert inline["workers"] == spawned["workers"]
        assert inline["merged"] == spawned["merged"]

    def test_heavy_tailed_workload_survives_spawn(self):
        # The CDF-sampled workloads ship to spawn children as a
        # (name, seed, duration) triple in the pickled WorkerSpec; the
        # child's regenerated stream must match the inline replay.
        kw = dict(
            workload="cdf-web-search", seed=1, duration=120.0, datagrams=300
        )
        inline = run_load(LoadSpec(workers=2, inline=True, **kw))
        spawned = run_load(LoadSpec(workers=2, inline=False, **kw))
        assert inline["workers"] == spawned["workers"]
        assert inline["merged"] == spawned["merged"]


class TestReport:
    def test_reports_are_byte_stable(self):
        a = render_report(build_report(run_load(smoke_spec(workers=2))))
        b = render_report(build_report(run_load(smoke_spec(workers=2))))
        assert a == b
        assert a.endswith("\n")

    def test_report_shape(self):
        report = build_report(verify_merge(smoke_spec(workers=2)))
        assert report["report_version"] == 1
        assert report["engine"]["workers"] == 2
        assert len(report["workers"]) == 2
        agg = report["aggregate"]
        assert agg["accepted"] == 600
        assert agg["goodput_dps"] >= max(
            w["goodput_dps"] for w in report["workers"]
        )
        assert report["checks"] == {
            "aggregate_ledger": "ok",
            "eviction_free": "ok",
            "per_shard_ledger": "ok",
        }
        assert report["merge_check"]["result"] == "exact"
