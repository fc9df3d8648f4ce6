"""Campaign invariants checked against every scenario run.

Each check takes a :class:`~repro.resilience.harness.ScenarioResult`
and returns a list of violation strings (empty = holds).  They cover
what the protocol's per-datagram outcome does not:

* **accounting** -- every rejected datagram carries exactly one reason,
  and received = accepted + rejected holds between trace and registry.
* **goodput** -- delivery degrades gracefully, never below the
  scenario's declared floor (link faults, not protocol).
* **silence** -- the receiver sends zero packets, ever: recovery and
  rejection alike need no synchronization messages.
* **bounded memory** -- reassembly state never exceeds its cap.

Whether each datagram was accepted, or rejected for the right reason,
is not a bound: the executable specification gives it exactly, and
tier-1 replays every scenario's receiver input through ``spec_receive``
(``tests/property/test_resilience_props.py``).  That covers forged and
corrupted acceptances, the rejection reasons, recovery after a flush
and the replay guard's memory.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.events import REJECTION_REASONS
from repro.resilience.harness import ScenarioResult

__all__ = ["check_all", "INVARIANT_NAMES"]

#: The invariant names, in check order (reported per scenario).
INVARIANT_NAMES = ("accounting", "goodput", "silence", "bounded_memory")


def _rejection_counts(result: ScenarioResult) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for event in result.events:
        if event.get("type") == "DatagramRejected":
            reason = str(event.get("reason"))
            counts[reason] = counts.get(reason, 0) + 1
    return counts


def _check_accounting(result: ScenarioResult) -> List[str]:
    violations = []
    trace_counts = _rejection_counts(result)
    for reason in trace_counts:
        if reason not in REJECTION_REASONS:
            violations.append(
                f"accounting: rejection reason {reason!r} is not in the "
                "closed REJECTION_REASONS vocabulary"
            )
    for reason in REJECTION_REASONS:
        counter = result.counters.get(
            f"datagrams_rejected{{reason={reason}}}", 0
        )
        traced = trace_counts.get(reason, 0)
        if counter != traced:
            violations.append(
                f"accounting: registry says {counter} "
                f"datagrams_rejected{{reason={reason}}} but the trace has "
                f"{traced} DatagramRejected events with that reason"
            )
    received = result.counters.get("datagrams_received", 0)
    accepted = result.counters.get("datagrams_accepted", 0)
    rejected = sum(
        result.counters.get(f"datagrams_rejected{{reason={r}}}", 0)
        for r in REJECTION_REASONS
    )
    if received != accepted + rejected:
        violations.append(
            f"accounting: datagrams_received={received} but "
            f"accepted+rejected={accepted}+{rejected}: a datagram was "
            "dropped without exactly one rejection reason"
        )
    return violations


def _check_goodput(result: ScenarioResult) -> List[str]:
    floor = result.scenario.min_goodput
    if result.goodput + 1e-12 < floor:
        return [
            f"goodput: {result.delivered_unique}/{len(result.sent)} "
            f"= {result.goodput:.3f} delivered, below the scenario floor "
            f"{floor:.3f}"
        ]
    return []


def _check_silence(result: ScenarioResult) -> List[str]:
    if result.receiver_packets_sent != 0:
        return [
            f"silence: the receiver sent {result.receiver_packets_sent} "
            "packet(s); soft-state recovery must need zero "
            "synchronization messages"
        ]
    return []


def _check_bounded_memory(result: ScenarioResult) -> List[str]:
    if result.reassembly_probe_violations > 0:
        return [
            "bounded_memory: reassembly pending-partial count exceeded "
            f"max_partials {result.reassembly_probe_violations} time(s) "
            f"(max observed: {result.reassembly_max_pending})"
        ]
    return []


_CHECKS = (
    _check_accounting,
    _check_goodput,
    _check_silence,
    _check_bounded_memory,
)


def check_all(result: ScenarioResult) -> List[str]:
    """Run every invariant; returns all violations (empty = scenario
    passes)."""
    violations: List[str] = []
    for check in _CHECKS:
        violations.extend(check(result))
    return violations
