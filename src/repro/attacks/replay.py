"""Replay attacks (Section 6.2), against any scheme.

"FBS uses a window-based timestamp scheme to counter replay attacks ...
the replay protection afforded by a datagram security protocol can not
be perfect.  If an attacker is able to replay a datagram within the
allowable 'freshness' window, the attack will succeed."

The scenario replays one recorded datagram twice: inside FBS's freshness
window (the documented residual exposure, left to higher layers) and
after it has closed.  A scheme whose datagrams carry no timestamp (or
one as coarse as SKIP's hour) accepts both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.adversary import tapped_lan
from repro.baselines import install_scheme
from repro.core.config import FBSConfig
from repro.netsim.sockets import UdpSocket

__all__ = ["ReplayOutcome", "run_replay_attack", "IN_WINDOW", "AFTER_WINDOW"]

#: Seconds after the original that the two replays land: well inside
#: FBS's default freshness window, and well past it.
IN_WINDOW = 5.0
AFTER_WINDOW = 600.0


@dataclass
class ReplayOutcome:
    """What the replay scenario observed."""

    original_delivered: bool
    #: Copies the application received from the in-window replay
    #: (success for the attacker; FBS accepts them as documented).
    replays_accepted_in_window: int
    #: Copies delivered from the out-of-window replay.
    replays_accepted_after_window: int


def run_replay_attack(
    scheme: str = "fbs", seed: int = 0, replay_guard_size: int = 0
) -> ReplayOutcome:
    """Run the full replay scenario against ``scheme`` and report.

    ``replay_guard_size`` > 0 enables FBS's optional duplicate-suppression
    extension (:mod:`repro.core.replay_guard`), which closes the
    in-window case the paper accepts as residual exposure; the other
    schemes have no such guard.
    """
    net, alice, bob, adversary = tapped_lan(seed, "10.9.0.0")
    config = FBSConfig(replay_guard_size=replay_guard_size)
    install_scheme(scheme, (alice, bob), seed + 1, config)

    inbox = UdpSocket(bob, 7000)
    sender = UdpSocket(alice)
    sender.sendto(b"TRANSFER $100 to mallory", bob.address, 7000)
    net.sim.run()
    original_delivered = len(inbox.received) == 1

    # The attacker captured the protected datagram; replay it while the
    # timestamp is still fresh, then again once the window has closed.
    victim_frame = adversary.captured[-1]
    accepted = []
    for delay in (IN_WINDOW, AFTER_WINDOW):
        before = len(inbox.received)
        adversary.replay(victim_frame, delay=delay)
        net.sim.run()
        accepted.append(len(inbox.received) - before)

    return ReplayOutcome(
        original_delivered=original_delivered,
        replays_accepted_in_window=accepted[0],
        replays_accepted_after_window=accepted[1],
    )
