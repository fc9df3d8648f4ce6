"""Campaign harness tests: verdicts, determinism, and sensitivity.

Three things must hold for the campaign to be trustworthy evidence:

1. the shipped scenario matrix passes (the protocol really is
   resilient under the scripted faults);
2. the report is byte-identical for the same seed (so CI can diff);
3. the invariants *fail* when the protection they check is removed,
   and so does the replay of each scenario through the specification
   (``tests/property/test_resilience_props.py``) when a protection no
   per-scenario bound could judge is broken (negative controls -- a
   harness that can't fail proves nothing).
"""

from collections import Counter
from dataclasses import dataclass, fields, replace

import pytest

from repro.core import protocol
from repro.core.replay_guard import ReplayGuard
from repro.core.timestamps import FreshnessWindow
from repro.netsim.fragmentation import Reassembler
from repro.obs.report import render_report
from repro.resilience import build_matrix, run_campaign, run_scenario
from repro.resilience.faults import Fault
from repro.resilience.harness import RECEIVER_PORT
from repro.resilience.invariants import INVARIANT_NAMES, check_all
from repro.resilience.report import scenario_report
from repro.resilience.scenario import SMOKE_DATAGRAMS, Scenario
from tests.property.test_resilience_props import MATRIX, mismatches


def _scenario(name, smoke=True):
    matrix = build_matrix(smoke=smoke)
    return next(s for s in matrix if s.name == name)


@dataclass(frozen=True)
class _Answer(Fault):
    """The receiver sends the sender one datagram: a receiver that
    answers."""

    def apply(self, harness) -> None:
        harness.receiver.udp.sendto(
            b"never scheduled", 7777, harness.sender.address, RECEIVER_PORT
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

    def test_unreachable_goodput_floor_trips_goodput(self):
        greedy = replace(_scenario("corruption"), min_goodput=1.0)
        _result, violations = run_scenario(greedy, seed=0)
        assert any(v.startswith("goodput") for v in violations)

    def test_a_receiver_that_answers_trips_silence(self):
        chatty = replace(_scenario("baseline"), faults=(_Answer(at=0.5),))
        _result, violations = run_scenario(chatty, seed=0)
        assert _fired(violations, "silence")

    def test_partials_past_the_cap_trip_bounded_memory(self, monkeypatch):
        # The probe reads a cap below what the reassembler holds under
        # fragment loss: memory past the bound.
        monkeypatch.setattr(Reassembler, "max_partials", property(lambda self: 1))
        _result, violations = run_scenario(_scenario("mtu_collapse", smoke=False), seed=0)
        assert _fired(violations, "bounded_memory")


def _outcomes(found):
    """How many mismatches of each ``(reason, specification's reason)``."""
    return Counter((got[1], expected[1]) for _i, _now, got, expected in found)


class TestPlantedDefects:
    """Break a protection no per-scenario bound could judge; the replay
    through the specification must name every datagram it let through
    or refused wrongly (counts at seed 0)."""

    def test_a_guard_one_entry_short_lets_every_replay_at_capacity_through(
        self, monkeypatch
    ):
        init = ReplayGuard.__init__

        def short(self, capacity, freshness_half_window):
            init(self, capacity, freshness_half_window)
            self.capacity -= 1

        monkeypatch.setattr(ReplayGuard, "__init__", short)
        found = mismatches(MATRIX["replay_at_capacity"], 0)
        # Each replay that lands evicts the next one in line.
        assert _outcomes(found) == {(None, "duplicate"): 8}

    def test_a_flush_that_leaves_the_guard_refuses_what_it_should_forget(
        self, monkeypatch
    ):
        monkeypatch.setattr(ReplayGuard, "flush", lambda self: None)
        found = mismatches(MATRIX["replay_after_flush"], 0)
        assert _outcomes(found) == {("duplicate", None): 8}

    def test_freshness_widened_into_the_past_accepts_stale_datagrams(
        self, monkeypatch
    ):
        def wide(self, timestamp_minutes, now):
            start = self.codec.decode(timestamp_minutes)
            return start + 120.0 >= now - self.half_window and start <= now + self.half_window

        monkeypatch.setattr(FreshnessWindow, "is_fresh", wide)
        found = mismatches(MATRIX["clock_skew_edge"], 0)
        assert _outcomes(found) == {(None, "stale_timestamp"): 30}

    @pytest.mark.parametrize(
        "name, accepted", [("corruption", 16), ("forgery", 14), ("perfect_storm", 3)]
    )
    def test_a_mac_check_that_always_passes_accepts_damaged_datagrams(
        self, monkeypatch, name, accepted
    ):
        # The UDP checksum inside the body drops them before the
        # application: only the receiver's FBS outcome shows them.
        monkeypatch.setattr(protocol, "constant_time_equal", lambda a, b: True)
        found = mismatches(MATRIX[name], 0)
        assert _outcomes(found) == {(None, "mac"): accepted}


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

    def test_a_scenario_carries_no_outcome_knob(self):
        # What each datagram's outcome must be is the specification's
        # (tests/property/test_resilience_props.py), not a per-scenario
        # bound: no reason list, recovery bound or duplicate switch.
        assert [f.name for f in fields(Scenario)] == [
            "name", "description", "datagrams", "interval", "payload_size",
            "conditions", "faults", "mtu", "replay_guard", "min_goodput",
        ]  # fmt: skip
        assert INVARIANT_NAMES == ("accounting", "goodput", "silence", "bounded_memory")
