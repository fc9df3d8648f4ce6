"""Scenario definitions: one named fault script plus its goodput floor.

A :class:`Scenario` is pure data -- traffic shape, initial link
conditions, a fault schedule (fractions of the send window), the
receiver's replay guard and the goodput floor the link faults leave.
What each datagram's outcome must be is not a per-scenario knob: the
executable specification gives it exactly (``spec_receive`` over the
receiver's recorded input, in ``tests/property/test_resilience_props.py``).

The campaign matrix (:func:`build_matrix`) is the executable claim list
of the paper's soft-state story: loss, duplication, reordering,
corruption, forgery, replay, reboot, clock skew, sweeper races, and
path-MTU collapse each get a scenario, and three more sit on the edges
of the replay guard's memory and of the freshness window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.netsim.link import LinkConditions
from repro.resilience.faults import (
    Fault,
    FlushSoftState,
    ForgeryBurst,
    InstallSweeper,
    ReplayBurst,
    SetClockSkew,
    SetConditions,
    ShrinkMtu,
    TamperBurst,
)

__all__ = ["Scenario", "build_matrix", "FULL_DATAGRAMS", "SMOKE_DATAGRAMS"]

#: Datagrams per scenario in the full and smoke tiers.
FULL_DATAGRAMS = 60
SMOKE_DATAGRAMS = 24


@dataclass(frozen=True)
class Scenario:
    """One fault-injection scenario and its goodput floor."""

    name: str
    description: str
    #: Traffic shape: ``datagrams`` sends, one every ``interval`` s.
    datagrams: int = FULL_DATAGRAMS
    interval: float = 0.05
    payload_size: int = 200
    #: Initial link conditions (faults may replace them mid-run).
    conditions: LinkConditions = field(default_factory=LinkConditions)
    #: Fault schedule; ``at`` values are fractions of the send window.
    faults: Tuple[Fault, ...] = ()
    #: Host MTU (small values force fragmentation from the start).
    mtu: int = 1500
    #: Receiver replay-guard capacity (0 = off, the paper's default).
    replay_guard: int = 0
    #: Minimum fraction of sent payloads that must reach the receiver.
    min_goodput: float = 0.9

    def scaled(self, datagrams: int) -> "Scenario":
        """The same scenario with a different stream length (the fault
        schedule is fractional, so it rescales automatically)."""
        return replace(self, datagrams=datagrams)


def build_matrix(smoke: bool = False) -> Tuple[Scenario, ...]:
    """The campaign matrix; ``smoke`` selects the short CI subset."""
    clean = LinkConditions()
    scenarios = (
        Scenario(
            name="baseline",
            description="clean network control run: everything delivered, "
            "nothing rejected",
            min_goodput=1.0,
        ),
        Scenario(
            name="lossy",
            description="15% frame loss: goodput degrades gracefully, "
            "no rejections (loss is silence, not damage)",
            conditions=LinkConditions(loss_probability=0.15),
            min_goodput=0.6,
        ),
        Scenario(
            name="dup_reorder",
            description="20% duplication + reorder jitter: duplicates and "
            "reordering are legitimate datagram behaviour, all accepted",
            conditions=LinkConditions(
                duplication_probability=0.2, reorder_jitter=0.004
            ),
            min_goodput=0.95,
        ),
        Scenario(
            name="corruption",
            description="25% per-frame bit flips: damaged datagrams are "
            "always rejected (MAC), never delivered",
            conditions=LinkConditions(corruption_probability=0.25),
            min_goodput=0.5,
        ),
        Scenario(
            name="reboot",
            description="receiver and sender soft-state flushes mid-flow: "
            "recovery within bounded datagrams, zero sync messages",
            faults=(
                FlushSoftState(at=0.35, target="receiver"),
                FlushSoftState(at=0.55, target="sender"),
                FlushSoftState(at=0.75, target="receiver"),
            ),
            min_goodput=1.0,
        ),
        Scenario(
            name="forgery",
            description="spoofed-source random datagrams plus bit-tampered "
            "captures: zero forged payloads delivered",
            faults=(
                ForgeryBurst(at=0.3, count=15, size=200),
                TamperBurst(at=0.6, count=15),
            ),
            min_goodput=1.0,
        ),
        Scenario(
            name="replay",
            description="verbatim wire replays against an enabled replay "
            "guard: at-most-once delivery, every replay rejected",
            faults=(ReplayBurst(at=0.6, count=15),),
            replay_guard=256,
            min_goodput=1.0,
        ),
        Scenario(
            name="replay_at_capacity",
            description="replays once the guard is exactly full: a guard "
            "that remembers one datagram fewer lets every replay through",
            faults=(ReplayBurst(at=0.508, count=8),),
            replay_guard=31,
            min_goodput=1.0,
        ),
        Scenario(
            name="replay_after_flush",
            description="replays after a receiver flush: the guard is soft "
            "state, so the flush re-admits them and that is correct",
            faults=(
                FlushSoftState(at=0.5, target="receiver"),
                ReplayBurst(at=0.6, count=8),
            ),
            replay_guard=256,
            min_goodput=1.0,
        ),
        Scenario(
            name="clock_skew_within",
            description="receiver clock 90s ahead with mild drift: inside "
            "the freshness window, traffic unaffected",
            faults=(
                SetClockSkew(at=0.3, target="receiver", offset=90.0, drift=0.001),
            ),
            min_goodput=1.0,
        ),
        Scenario(
            name="clock_skew_beyond",
            description="receiver clock 400s ahead mid-flow, later healed: "
            "stale rejections while skewed, recovery after",
            faults=(
                SetClockSkew(at=0.4, target="receiver", offset=400.0),
                SetClockSkew(at=0.7, target="receiver", offset=0.0),
            ),
            min_goodput=0.5,
        ),
        Scenario(
            name="clock_skew_edge",
            description="receiver clock 178.5s ahead from the start: the "
            "freshness window's past edge falls mid-stream",
            faults=(SetClockSkew(at=0.0, target="receiver", offset=178.5),),
            min_goodput=0.5,
        ),
        Scenario(
            name="sweeper_race",
            description="aggressive FST sweepers race live traffic: flows "
            "restart but nothing is rejected (teardown is soft)",
            faults=(
                InstallSweeper(at=0.2, target="receiver", threshold=0.2, interval=0.05),
                InstallSweeper(at=0.4, target="sender", threshold=0.2, interval=0.05),
            ),
            min_goodput=1.0,
        ),
        Scenario(
            name="mtu_collapse",
            description="path MTU shrinks mid-flow under 5% loss: fragments "
            "drop whole datagrams, reassembly memory stays bounded",
            payload_size=1400,
            conditions=LinkConditions(loss_probability=0.05),
            faults=(ShrinkMtu(at=0.5, target="sender", mtu=576),),
            min_goodput=0.6,
        ),
        Scenario(
            name="perfect_storm",
            description="loss + duplication + corruption + jitter + reboot "
            "+ forgery at once: degraded but never wrong",
            conditions=LinkConditions(
                loss_probability=0.08,
                duplication_probability=0.08,
                corruption_probability=0.08,
                reorder_jitter=0.003,
            ),
            faults=(
                ForgeryBurst(at=0.25, count=10, size=200),
                FlushSoftState(at=0.5, target="receiver"),
                SetConditions(at=0.8, conditions=clean),
            ),
            min_goodput=0.35,
        ),
    )
    if not smoke:
        return scenarios
    smoke_names = {"baseline", "corruption", "reboot", "forgery", "replay"}
    return tuple(
        scenario.scaled(SMOKE_DATAGRAMS)
        for scenario in scenarios
        if scenario.name in smoke_names
    )
