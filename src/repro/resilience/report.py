"""Campaign reports: deterministic JSON, one verdict per scenario.

The report is the campaign's product: a JSON document that is
**byte-identical for the same seed** (CI runs the smoke campaign twice
and compares).  Determinism rules:

* every number comes from the simulation (seeded RNGs, virtual clock);
* floats are rounded to 6 decimals at the report boundary;
* serialization is :func:`repro.obs.report.render_report` (sorted keys,
  trailing newline).
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.events import REJECTION_REASONS
from repro.resilience.harness import ScenarioResult
from repro.resilience.invariants import INVARIANT_NAMES

__all__ = ["REPORT_VERSION", "scenario_report", "campaign_report"]

#: Bumped whenever the report schema changes shape (2: four invariants;
#: each datagram's outcome is judged by the specification in tier-1).
REPORT_VERSION = 2


def scenario_report(
    result: ScenarioResult, violations: List[str]
) -> Dict[str, object]:
    """One scenario's slice of the campaign report."""
    rejections = {
        reason: result.counters.get(f"datagrams_rejected{{reason={reason}}}", 0)
        for reason in REJECTION_REASONS
    }
    scenario = result.scenario
    return {
        "name": scenario.name,
        "description": scenario.description,
        "verdict": "pass" if not violations else "fail",
        "violations": list(violations),
        "traffic": {
            "datagrams_sent": len(result.sent),
            "delivered": len(result.delivered),
            "delivered_unique": result.delivered_unique,
            "goodput": round(result.goodput, 6),
            "min_goodput": round(scenario.min_goodput, 6),
        },
        "attack": {
            "forged_sent": result.forged_sent,
            "tampered_sent": result.tampered_sent,
            "replays_sent": result.replays_sent,
        },
        "receiver": {
            "datagrams_received": result.counters.get("datagrams_received", 0),
            "datagrams_accepted": result.counters.get("datagrams_accepted", 0),
            "rejections": rejections,
            "soft_state_flushes": result.counters.get("soft_state_flushes", 0),
            "packets_sent": result.receiver_packets_sent,
            "bad_ip_headers": result.receiver_bad_headers,
        },
        "wire": {
            "frames_sent": result.frames_sent,
            "frames_dropped": result.frames_dropped,
            "frames_duplicated": result.frames_duplicated,
            "frames_corrupted": result.frames_corrupted,
        },
        "reassembly": {
            "max_pending": result.reassembly_max_pending,
            "probe_violations": result.reassembly_probe_violations,
            "overflow_drops": result.reassembly_overflow_drops,
        },
        "finished_at": round(result.finished_at, 6),
    }


def campaign_report(
    seed: int, tier: str, scenarios: List[Dict[str, object]]
) -> Dict[str, object]:
    """The full campaign document."""
    failed = [s["name"] for s in scenarios if s["verdict"] != "pass"]
    return {
        "report_version": REPORT_VERSION,
        "seed": seed,
        "tier": tier,
        "invariants": list(INVARIANT_NAMES),
        "scenarios": scenarios,
        "summary": {
            "total": len(scenarios),
            "passed": len(scenarios) - len(failed),
            "failed": len(failed),
            "failed_scenarios": failed,
        },
    }
