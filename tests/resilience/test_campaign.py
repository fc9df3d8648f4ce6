"""Campaign harness tests: verdicts, determinism, and sensitivity.

Three things must hold for the campaign to be trustworthy evidence:

1. the shipped scenario matrix passes (the protocol really is
   resilient under the scripted faults);
2. the report is byte-identical for the same seed (so CI can diff);
3. the invariants *fail* when the protection they check is removed
   (negative controls -- a harness that can't fail proves nothing).
"""

from dataclasses import dataclass, replace

import pytest

from repro.netsim.fragmentation import Reassembler
from repro.netsim.link import LinkConditions
from repro.obs.report import render_report
from repro.resilience import build_matrix, run_campaign, run_scenario
from repro.resilience.faults import Fault, FlushSoftState, ReplayBurst, SetConditions
from repro.resilience.harness import RECEIVER_PORT
from repro.resilience.invariants import check_all
from repro.resilience.report import scenario_report
from repro.resilience.scenario import SMOKE_DATAGRAMS, Scenario


def _scenario(name, smoke=True):
    matrix = build_matrix(smoke=smoke)
    return next(s for s in matrix if s.name == name)


@dataclass(frozen=True)
class _SendAs(Fault):
    """One datagram the sender never scheduled, from ``role``'s own
    stack (so under its own keys): a stolen sender key, or a receiver
    that answers."""

    role: str = "sender"

    def apply(self, harness) -> None:
        peer = "receiver" if self.role == "sender" else "sender"
        harness.host(self.role).udp.sendto(
            b"never scheduled", 7777, harness.host(peer).address, RECEIVER_PORT
        )


def _fired(violations, invariant):
    return [v for v in violations if v.startswith(invariant)]


class TestVerdicts:
    @pytest.mark.parametrize(
        "name", [s.name for s in build_matrix(smoke=True)]
    )
    def test_smoke_scenarios_pass(self, name):
        result, violations = run_scenario(_scenario(name), seed=0)
        assert violations == []

    def test_reboot_scenario_actually_flushes(self):
        result, violations = run_scenario(_scenario("reboot"), seed=0)
        assert violations == []
        assert result.counters.get("soft_state_flushes", 0) >= 2
        flushes = [
            e for e in result.events if e["type"] == "SoftStateFlushed"
        ]
        assert flushes and all(e["scope"] == "endpoint" for e in flushes)

    def test_forgery_scenario_sends_real_attacks(self):
        result, violations = run_scenario(_scenario("forgery"), seed=0)
        assert violations == []
        assert result.forged_sent > 0
        assert result.tampered_sent > 0
        # Attack traffic was rejected, not lost: the receiver saw it.
        rejected = [
            e for e in result.events if e["type"] == "DatagramRejected"
        ]
        assert len(rejected) > 0

    def test_replay_scenario_exercises_the_guard(self):
        result, violations = run_scenario(_scenario("replay"), seed=0)
        assert violations == []
        assert result.replays_sent > 0
        duplicates = [
            e
            for e in result.events
            if e["type"] == "DatagramRejected" and e["reason"] == "duplicate"
        ]
        assert len(duplicates) == result.replays_sent


class TestDeterminism:
    def test_same_seed_same_report_bytes(self):
        scenario = _scenario("corruption")
        first = scenario_report(*run_scenario(scenario, seed=3))
        second = scenario_report(*run_scenario(scenario, seed=3))
        assert render_report({"s": first}) == render_report({"s": second})

    def test_different_seed_different_trace(self):
        scenario = _scenario("corruption")
        first, _ = run_scenario(scenario, seed=0)
        second, _ = run_scenario(scenario, seed=1)
        assert first.frames_corrupted != second.frames_corrupted or (
            first.delivered != second.delivered
        )

    def test_campaign_subset_runs(self):
        report = run_campaign(seed=0, smoke=True, only=["baseline"])
        assert [s["name"] for s in report["scenarios"]] == ["baseline"]
        assert report["summary"] == {
            "total": 1,
            "passed": 1,
            "failed": 0,
            "failed_scenarios": [],
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_campaign(seed=0, smoke=True, only=["nope"])


class TestNegativeControls:
    """Remove a protection; the matching invariant must fire."""

    def test_unguarded_replay_trips_at_most_once(self):
        unguarded = replace(_scenario("replay"), replay_guard=0)
        _result, violations = run_scenario(unguarded, seed=0)
        assert any(v.startswith("at_most_once") for v in violations)

    def test_unreachable_goodput_floor_trips_goodput(self):
        greedy = replace(_scenario("corruption"), min_goodput=1.0)
        _result, violations = run_scenario(greedy, seed=0)
        assert any(v.startswith("goodput") for v in violations)

    def test_overstrict_reasons_trip_allowed_reasons(self):
        strict = replace(_scenario("corruption"), allowed_reasons=())
        _result, violations = run_scenario(strict, seed=0)
        assert any(v.startswith("allowed_reasons") for v in violations)

    def test_impossible_recovery_bound_trips_recovery(self):
        scenario = Scenario(
            name="reboot_strict",
            description="reboot with a zero-rejection recovery bound "
            "under corruption (some rejections are inevitable)",
            datagrams=SMOKE_DATAGRAMS,
            conditions=_scenario("corruption").conditions,
            faults=(FlushSoftState(at=0.4, target="receiver"),),
            min_goodput=0.0,
            recovery_bound=-1,
            allowed_reasons=None,
        )
        _result, violations = run_scenario(scenario, seed=0)
        assert any(v.startswith("recovery") for v in violations)

    def test_stolen_sender_key_trips_authenticity(self):
        forged = replace(_scenario("baseline"), faults=(_SendAs(at=0.5),))
        result, violations = run_scenario(forged, seed=0)
        assert b"never scheduled" in result.delivered
        assert _fired(violations, "authenticity")

    def test_a_flush_into_a_dead_link_trips_recovery(self):
        cut = replace(
            _scenario("baseline"),
            faults=(
                FlushSoftState(at=0.4, target="receiver"),
                SetConditions(at=0.4, conditions=LinkConditions(loss_probability=1.0)),
            ),
            min_goodput=0.0,
        )
        _result, violations = run_scenario(cut, seed=0)
        assert [v for v in _fired(violations, "recovery") if "never followed" in v]

    def test_a_receiver_that_answers_trips_silence(self):
        chatty = replace(_scenario("baseline"), faults=(_SendAs(at=0.5, role="receiver"),))
        _result, violations = run_scenario(chatty, seed=0)
        assert _fired(violations, "silence")

    def test_partials_past_the_cap_trip_bounded_memory(self, monkeypatch):
        # The probe reads a cap below what the reassembler holds under
        # fragment loss: memory past the bound.
        monkeypatch.setattr(Reassembler, "max_partials", property(lambda self: 1))
        _result, violations = run_scenario(_scenario("mtu_collapse", smoke=False), seed=0)
        assert _fired(violations, "bounded_memory")


class TestAccountingControls:
    """A receiver whose trace and registry disagree: one planted defect
    per accounting check, on a real run's evidence."""

    @pytest.fixture(scope="class")
    def forgery(self):
        result, violations = run_scenario(_scenario("forgery"), seed=0)
        assert violations == [] and result.counters["datagrams_rejected{reason=mac}"] > 0
        return result

    def test_a_reason_outside_the_vocabulary(self, forgery):
        rogue = {"type": "DatagramRejected", "reason": "rogue", "t": 0.0}
        violations = check_all(replace(forgery, events=forgery.events + [rogue]))
        assert [v for v in violations if "'rogue' is not in" in v]

    def test_a_rejection_counted_but_not_traced(self, forgery):
        first = next(
            i for i, e in enumerate(forgery.events)
            if e["type"] == "DatagramRejected" and e["reason"] == "mac"
        )
        events = forgery.events[:first] + forgery.events[first + 1:]
        violations = check_all(replace(forgery, events=events))
        assert [v for v in violations if "datagrams_rejected{reason=mac} but the trace" in v]

    def test_a_datagram_dropped_without_a_reason(self, forgery):
        counters = dict(forgery.counters)
        counters["datagrams_received"] += 1
        violations = check_all(replace(forgery, counters=counters))
        assert [v for v in violations if "without exactly one rejection reason" in v]


class TestScaling:
    def test_smoke_tier_is_a_scaled_subset(self):
        full = {s.name: s for s in build_matrix(smoke=False)}
        for scenario in build_matrix(smoke=True):
            assert scenario.datagrams == SMOKE_DATAGRAMS
            assert scenario.faults == full[scenario.name].faults

    def test_scenario_names_unique(self):
        names = [s.name for s in build_matrix(smoke=False)]
        assert len(names) == len(set(names))
