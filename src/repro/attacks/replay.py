"""Replay attacks against FBS (Section 6.2).

"FBS uses a window-based timestamp scheme to counter replay attacks ...
the replay protection afforded by a datagram security protocol can not
be perfect.  If an attacker is able to replay a datagram within the
allowable 'freshness' window, the attack will succeed."

The scenario demonstrates both halves: a replay inside the window is
accepted (the documented residual exposure, left to higher layers), and
a replay after the window closes is rejected by the freshness check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.adversary import OnPathAdversary
from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.netsim.ipv4 import IPProtocol
from repro.netsim.network import Network
from repro.netsim.sockets import UdpSocket

__all__ = ["ReplayOutcome", "run_replay_attack"]


@dataclass
class ReplayOutcome:
    """What the replay scenario observed."""

    original_delivered: bool
    #: Copies the application received from the in-window replay
    #: (success for the attacker; FBS accepts them as documented).
    replays_accepted_in_window: int
    #: Copies delivered from the out-of-window replay (should be 0).
    replays_accepted_after_window: int
    #: Datagrams the receive side rejected as stale.
    stale_rejections: int


def run_replay_attack(
    seed: int = 0,
    freshness_half_window: float = 120.0,
    replay_delay_in_window: float = 5.0,
    replay_delay_after_window: float = 600.0,
    encrypt: bool = True,
    replay_guard_size: int = 0,
) -> ReplayOutcome:
    """Run the full replay scenario and report the outcome.

    ``replay_guard_size`` > 0 enables the optional duplicate-suppression
    extension (:mod:`repro.core.replay_guard`), which closes the
    in-window case the paper accepts as residual exposure.
    """
    config = FBSConfig(
        freshness_half_window=freshness_half_window,
        replay_guard_size=replay_guard_size,
    )
    net = Network(seed=seed)
    net.add_segment("lan", "10.9.0.0")
    alice = net.add_host("alice", segment="lan")
    bob = net.add_host("bob", segment="lan")
    adversary = OnPathAdversary(net.sim, net.segment("lan"))

    domain = FBSDomain(seed=seed + 1, config=config)
    domain.enroll_host(alice, encrypt_all=encrypt)
    bob_fbs = domain.enroll_host(bob, encrypt_all=encrypt)

    inbox = UdpSocket(bob, 7000)
    sender = UdpSocket(alice)
    sender.sendto(b"TRANSFER $100 to mallory", bob.address, 7000)
    net.sim.run()
    original_delivered = len(inbox.received) == 1

    # The attacker captured the protected datagram; replay it while the
    # timestamp is still fresh.
    victim_frame = adversary.captured[-1]
    adversary.replay(victim_frame, delay=replay_delay_in_window)
    net.sim.run()
    in_window = len(inbox.received) - 1

    # Let the freshness window close, then replay again.
    baseline = len(inbox.received)
    stale_counter = bob_fbs.endpoint.registry.counter(
        "datagrams_rejected", reason="stale_timestamp"
    )
    stale_before = stale_counter.value
    adversary.replay(victim_frame, delay=replay_delay_after_window)
    net.sim.run()
    after_window = len(inbox.received) - baseline
    stale = stale_counter.value - stale_before

    return ReplayOutcome(
        original_delivered=original_delivered,
        replays_accepted_in_window=in_window,
        replays_accepted_after_window=after_window,
        stale_rejections=stale,
    )
