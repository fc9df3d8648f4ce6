"""Byte-stable JSON reports for the load engine.

Same contract as the resilience reports: a report is a pure function of
``(spec, seed)``, serialized with sorted keys and floats rounded at the
boundary, so CI can run the engine twice and ``cmp`` the files.  No
wall-clock value ever enters a report -- goodput here is *simulation*
goodput (accepted datagrams per simulated second); real-time rates are
the cost budget's (``benchmarks/budget/``: ``goodput_dps`` and
``load.run_worker_dps`` on ``replay-secret-cdf``), which is allowed to
be machine-dependent.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.load.engine import LoadSpec
from repro.load.worker import CACHE_SIZE, SHARD_EXACT

__all__ = ["REPORT_VERSION", "build_report"]

REPORT_VERSION = 1


def _round(value: float) -> float:
    return round(value, 6)


def _round_tree(obj):
    """Round every float in a snapshot-shaped structure (6 dp)."""
    if isinstance(obj, float):
        return _round(obj)
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_tree(v) for v in obj]
    return obj


def build_report(run: Dict[str, object]) -> Dict[str, object]:
    """Fold a finished ``run_load``/``verify_merge`` run into a report."""
    spec: LoadSpec = run["spec"]
    results: List[Dict[str, object]] = run["workers"]
    sim_duration = max((r["sim_duration"] for r in results), default=0.0)
    workers_out = []
    for r in results:
        goodput = r["accepted"] / sim_duration if sim_duration else 0.0
        workers_out.append(
            {
                "worker": r["worker"],
                "datagrams": r["datagrams"],
                "sent": r["sent"],
                "received": r["received"],
                "accepted": r["accepted"],
                "rejected": dict(sorted(r["rejected"].items())),
                "bytes_protected": r["bytes_protected"],
                "bytes_accepted": r["bytes_accepted"],
                "flows": r["flows"],
                "goodput_dps": _round(goodput),
            }
        )
    accepted = sum(r["accepted"] for r in results)
    aggregate = {
        "datagrams": sum(r["datagrams"] for r in results),
        "sent": sum(r["sent"] for r in results),
        "received": sum(r["received"] for r in results),
        "accepted": accepted,
        "rejected": _sum_reasons(results),
        "bytes_protected": sum(r["bytes_protected"] for r in results),
        "bytes_accepted": sum(r["bytes_accepted"] for r in results),
        "flows": sum(r["flows"] for r in results),
        "sim_duration": _round(sim_duration),
        "goodput_dps": _round(accepted / sim_duration if sim_duration else 0.0),
    }
    report: Dict[str, object] = {
        "report_version": REPORT_VERSION,
        "engine": {
            "workers": spec.workers,
            "workload": spec.workload,
            "seed": spec.seed,
            "duration": spec.duration,
            "datagrams": spec.datagrams,
            "secret": spec.secret,
            "threshold": _round(SHARD_EXACT.threshold),
            "cache_size": CACHE_SIZE,
            "batch": spec.batch,
        },
        "workers": workers_out,
        "aggregate": aggregate,
        "merged_metrics": _round_tree(run["merged"]),
        "checks": {
            "per_shard_ledger": "ok",
            "aggregate_ledger": "ok",
            "eviction_free": "ok",
        },
    }
    merge_check: Optional[Dict[str, object]] = run.get("merge_check")
    if merge_check is not None:
        report["merge_check"] = merge_check
    return report


def _sum_reasons(results: List[Dict[str, object]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for r in results:
        for reason, count in r["rejected"].items():
            out[reason] = out.get(reason, 0) + count
    return dict(sorted(out.items()))
