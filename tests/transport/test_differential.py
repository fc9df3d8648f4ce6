"""Cross-substrate differentials.

The same workload over the netsim adapter and over real UDP loopback
must produce *identical* accepted/rejected ledgers in a lossless run.
"""

import asyncio

import pytest

from repro.obs.report import render_report
from repro.transport.hop import DirectHop
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


class TestHopPlumbing:
    def test_direct_hop_is_identity(self):
        batch = [b"a", b"b", b"c"]
        assert DirectHop().relay(batch) == batch
