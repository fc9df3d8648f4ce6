"""Cross-substrate differentials: the ISSUE 8 acceptance criteria.

The same workload over the netsim adapter and over real UDP loopback
must produce *identical* accepted/rejected ledgers in a lossless run;
the load engine must produce byte-identical reports whether its wire
hop is an in-memory hand-off or a NetsimTransport relay.
"""

import asyncio

import pytest

from repro.load.worker import WorkerSpec, run_worker
from repro.obs.report import render_report
from repro.transport.hop import DirectHop, NetsimHop, build_hop
from repro.transport.runner import run_echo


def _echo_report(substrate, **kwargs):
    return asyncio.run(run_echo(substrate=substrate, **kwargs))


class TestEchoLedgerEquality:
    def test_netsim_and_udp_ledgers_identical(self):
        # THE acceptance criterion: same workload, two substrates, one
        # ledger.  Only the substrate label may differ.
        netsim = _echo_report("netsim", datagrams=25, seed=0)
        udp = _echo_report("udp", datagrams=25, seed=0)
        assert netsim.pop("substrate") == "netsim"
        assert udp.pop("substrate") == "udp"
        assert netsim == udp

    def test_ledger_equality_holds_across_seeds(self):
        for seed in (1, 2):
            netsim = _echo_report("netsim", datagrams=8, seed=seed)
            udp = _echo_report("udp", datagrams=8, seed=seed)
            netsim.pop("substrate")
            udp.pop("substrate")
            assert netsim == udp, f"seed {seed} diverged"

    def test_lossless_run_accepts_everything(self):
        report = _echo_report("netsim", datagrams=25, seed=0)
        assert report["echoed"] == 25
        assert report["exchanges_retried"] == 0
        for side in ("client", "server"):
            assert report[side]["accepted"] == 25
            assert all(v == 0 for v in report[side]["rejected"].values())
            assert report[side]["transport"]["queue_drops"] == 0

    def test_rendered_report_is_byte_stable(self):
        one = render_report(_echo_report("udp", datagrams=10, seed=0))
        two = render_report(_echo_report("udp", datagrams=10, seed=0))
        assert one == two

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError):
            asyncio.run(run_echo(substrate="carrier-pigeon"))


class TestLoadHopEquality:
    def _result(self, transport, **overrides):
        spec = WorkerSpec(
            worker=0,
            workers=1,
            workload="smoke",
            seed=0,
            transport=transport,
            **overrides,
        )
        return run_worker(spec)

    def test_direct_and_netsim_hops_merge_identically(self):
        # Full result equality: counters, snapshot, rejected map -- the
        # wire hop must be invisible in every report byte.
        assert self._result("direct") == self._result("netsim")

    def test_hop_equality_with_encryption(self):
        assert self._result("direct", secret=True) == self._result(
            "netsim", secret=True
        )

    def test_hop_equality_across_shards(self):
        for worker in (0, 1):
            direct = run_worker(
                WorkerSpec(worker=worker, workers=2, workload="smoke")
            )
            netsim = run_worker(
                WorkerSpec(
                    worker=worker, workers=2, workload="smoke",
                    transport="netsim",
                )
            )
            assert direct == netsim, f"shard {worker} diverged"


class TestHopPlumbing:
    def test_build_hop_resolves_names(self):
        assert isinstance(build_hop("direct"), DirectHop)
        assert isinstance(build_hop("netsim"), NetsimHop)
        with pytest.raises(ValueError):
            build_hop("tin-cans")

    def test_direct_hop_is_identity(self):
        batch = [b"a", b"b", b"c"]
        assert DirectHop().relay(batch) == batch

    def test_netsim_hop_preserves_order_losslessly(self):
        hop = NetsimHop(seed=0)
        batch = [b"%04d" % i for i in range(500)]
        assert hop.relay(batch) == batch
        assert hop.tx.stats.datagrams_sent == 500
        assert hop.rx.stats.queue_drops == 0

    def test_netsim_hop_carries_successive_batches(self):
        hop = NetsimHop(seed=0)
        assert hop.relay([b"one"]) == [b"one"]
        assert hop.relay([b"two", b"three"]) == [b"two", b"three"]
