"""Deterministic fault actions for resilience campaigns.

Each fault is a frozen dataclass naming *when* it fires and *what* it
does to the running scenario.  ``at`` is a fraction of the scenario's
send window (0.0 = first datagram, 1.0 = last), so the same fault
schedule scales between the smoke tier and the full tier without
editing absolute times.

Faults act only through public seams -- link/segment ``conditions``,
``HostClock.set_skew``, ``FBSEndpoint.flush_all_caches``,
``FlowAssociationMechanism.configure_sweeper``, interface ``mtu`` --
so a campaign exercises exactly the control surface an operator (or an
attacker with wire access, for the injection faults) has.

Everything here is deterministic: injections draw from the harness's
seeded RNG, and fault application happens inside simulator events, so
one seed always produces one event sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.policy import ThresholdSweeper
from repro.netsim.link import LinkConditions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.harness import ScenarioHarness

__all__ = [
    "Fault",
    "SetConditions",
    "FlushSoftState",
    "SetClockSkew",
    "ShrinkMtu",
    "InstallSweeper",
    "ForgeryBurst",
    "TamperBurst",
    "ReplayBurst",
]


@dataclass(frozen=True)
class Fault:
    """Base fault: fires at ``at`` (fraction of the send window)."""

    at: float

    def apply(self, harness: "ScenarioHarness") -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__}@{self.at:g}"


@dataclass(frozen=True)
class SetConditions(Fault):
    """Swap the segment's fault conditions mid-run (loss storm starts,
    corruption begins, the network heals, ...)."""

    conditions: LinkConditions = field(default_factory=LinkConditions)

    def apply(self, harness: "ScenarioHarness") -> None:
        harness.segment.conditions = self.conditions


@dataclass(frozen=True)
class FlushSoftState(Fault):
    """Reboot a host's FBS state: every cache, the FST, and the replay
    guard vanish at once.  The protocol's claim is that nothing breaks."""

    target: str = "receiver"

    def apply(self, harness: "ScenarioHarness") -> None:
        harness.binding(self.target).endpoint.flush_all_caches()


@dataclass(frozen=True)
class SetClockSkew(Fault):
    """Skew a host's local clock (offset seconds, drift rate).

    Offsets inside the freshness window model ordinary loose
    synchronization; offsets beyond it model a broken NTP peer and must
    produce ``stale_timestamp`` rejections, never acceptances."""

    target: str = "receiver"
    offset: float = 0.0
    drift: float = 0.0

    def apply(self, harness: "ScenarioHarness") -> None:
        harness.host(self.target).clock.set_skew(
            offset=self.offset, drift=self.drift
        )


@dataclass(frozen=True)
class ShrinkMtu(Fault):
    """Shrink every interface MTU on a host (path MTU collapse), forcing
    mid-flow fragmentation of datagrams that used to fit."""

    target: str = "sender"
    mtu: int = 576

    def apply(self, harness: "ScenarioHarness") -> None:
        for interface in harness.host(self.target).stack.interfaces:
            interface.mtu = self.mtu


@dataclass(frozen=True)
class InstallSweeper(Fault):
    """Install an aggressively-paced FST sweeper mid-flow, racing flow
    teardown against live traffic.  Because flow state is soft, expiring
    an active flow restarts it; it must never reject it."""

    target: str = "receiver"
    threshold: float = 0.2
    interval: float = 0.05

    def apply(self, harness: "ScenarioHarness") -> None:
        harness.binding(self.target).endpoint.fam.configure_sweeper(
            ThresholdSweeper(threshold=self.threshold), self.interval
        )


@dataclass(frozen=True)
class ForgeryBurst(Fault):
    """The attacker host sends ``count`` raw datagrams with a spoofed
    source address and random payloads.  None may ever be delivered."""

    count: int = 10
    size: int = 200

    def apply(self, harness: "ScenarioHarness") -> None:
        harness.inject_forgeries(self.count, self.size)


@dataclass(frozen=True)
class TamperBurst(Fault):
    """Replay ``count`` captured genuine frames with one bit flipped
    inside the FBS region (wire tampering past the IP header).  The MAC
    must reject every one."""

    count: int = 10

    def apply(self, harness: "ScenarioHarness") -> None:
        harness.inject_tampered(self.count)


@dataclass(frozen=True)
class ReplayBurst(Fault):
    """Re-inject ``count`` captured genuine frames verbatim.  A replay
    guard refuses each one it still remembers as ``duplicate``; what its
    capacity bound or a flush forgot is delivered again."""

    count: int = 10

    def apply(self, harness: "ScenarioHarness") -> None:
        harness.inject_replays(self.count)
