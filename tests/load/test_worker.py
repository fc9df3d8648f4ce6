"""The load replay: its ledger checks, batch invariance and report.

The headline property: a datagram's counters depend only on its own
flow and stamps (the batch-exact configuration of
``repro.load.worker``), so the cut of the stream into batches changes
no counter, gauge or histogram, on every registered workload, MAC-only
and secret.
"""

import pytest

from repro.load.cli import REPORT_VERSION, build_report
from repro.load.worker import LoadError, WorkerSpec, check_invariants, run_worker
from repro.obs.report import render_report
from repro.traces.registry import WORKLOADS


def smoke_spec(**kw):
    kw.setdefault("workload", "smoke")
    return WorkerSpec(worker=0, workers=1, **kw)


class TestLedger:
    def test_the_replay_covers_the_workload(self):
        result = run_worker(smoke_spec())
        assert result["datagrams"] == result["sent"] == 600
        # Clean replay: everything sent is received and accepted.
        assert result["received"] == result["accepted"] + sum(result["rejected"].values())
        assert result["snapshot"]["counters"]["datagrams_accepted"] == 600

    def test_check_invariants_catches_ledger_break(self):
        broken = run_worker(smoke_spec())
        broken["received"] += 1
        with pytest.raises(LoadError, match="received"):
            check_invariants(broken)

    def test_check_invariants_counts_every_rejection(self):
        # A rejection reason enters the ledger: one accepted datagram
        # recounted as rejected balances, one rejection added does not.
        moved = run_worker(smoke_spec())
        moved["accepted"] -= 1
        moved["rejected"]["mac"] = 1
        check_invariants(moved)
        broken = run_worker(smoke_spec())
        broken["rejected"]["mac"] = 1
        with pytest.raises(LoadError, match="received"):
            check_invariants(broken)

    def test_check_invariants_catches_eviction(self):
        broken = run_worker(smoke_spec())
        broken["snapshot"]["counters"]["cache_evictions{cache=TFKC}"] = 1
        with pytest.raises(LoadError, match="eviction"):
            check_invariants(broken)


class TestBatchInvariance:
    @pytest.mark.parametrize("secret", [False, True], ids=["mac", "secret"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_the_batch_cut_changes_no_metric(self, name, secret):
        # 100 datagrams of a 90 s trace: the 18 cases run in ~3 s.
        def snapshot(batch):
            spec = smoke_spec(
                workload=name, duration=90.0, datagrams=100, secret=secret, batch=batch
            )
            result = run_worker(spec)
            assert result["datagrams"] == 100
            return result["snapshot"]

        assert snapshot(7) == snapshot(256)


class TestWorkerSpec:
    def test_worker_result_is_a_pure_function_of_its_spec(self):
        spec = smoke_spec(seed=2)
        assert run_worker(spec) == run_worker(spec)

    def test_only_one_inline_worker_is_accepted(self):
        for worker, workers in ((1, 1), (0, 2)):
            with pytest.raises(ValueError, match="one inline worker"):
                WorkerSpec(worker=worker, workers=workers, workload="smoke")


class TestReport:
    def test_reports_are_byte_stable(self):
        a = render_report(build_report(smoke_spec(), run_worker(smoke_spec())))
        b = render_report(build_report(smoke_spec(), run_worker(smoke_spec())))
        assert a == b
        assert a.endswith("\n")

    def test_report_shape(self):
        spec = smoke_spec()
        report = build_report(spec, run_worker(spec))
        assert report["report_version"] == REPORT_VERSION == 2
        assert sorted(report) == ["checks", "engine", "metrics", "report_version", "totals"]
        assert report["totals"]["accepted"] == 600
        assert report["totals"]["goodput_dps"] == round(600 / report["totals"]["sim_duration"], 6)
        assert report["checks"] == {"ledger": "ok", "eviction_free": "ok"}
