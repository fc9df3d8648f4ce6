"""The port-reuse attack of Section 7.1 and its countermeasure.

"An attacker can recover the encrypted data sent in a flow by (1)
recording the datagrams in the flow; (2) reallocating the same port used
for the flow right after the original destination principal exited; (3)
replaying the recorded datagrams to itself at this port.  FBS would
gladly decrypt the datagrams and hand them to the attacker if they are
still 'fresh.'  One way to counter this problem is to impose a wait of
THRESHOLD on port reallocation."

The attacker here is a local unprivileged process on the destination
host (it can bind ports but not read kernel keys), colluding with an
on-path recorder.  The ``rebind_wait`` knob on the UDP layer is the
paper's ``in_pcballoc`` fix.  Any scheme that keys by host, not by
port, decrypts the replay for whoever holds the port.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.adversary import tapped_lan
from repro.baselines import install_scheme
from repro.core.config import FBSConfig
from repro.core.errors import ScenarioError
from repro.netsim.sockets import UdpSocket

__all__ = ["PortReuseOutcome", "run_port_reuse_attack"]

SECRET = b"quarterly numbers: confidential draft"


@dataclass
class PortReuseOutcome:
    """What the port-reuse scenario observed."""

    #: The attacker's socket successfully bound the victim's port.
    port_rebound: bool
    #: Plaintext datagrams the attacker's socket received from replays.
    plaintexts_recovered: int
    #: The recovered bytes (empty if the attack failed).
    recovered: bytes


def run_port_reuse_attack(
    scheme: str = "fbs",
    countermeasure: bool = False,
    seed: int = 0,
    attack_delay: float = 1.0,
) -> PortReuseOutcome:
    """Run the scenario against ``scheme``, optionally with the
    wait-THRESHOLD fix (FBS's THRESHOLD, 600 s)."""
    net, alice, bob, recorder = tapped_lan(seed, "10.7.0.0")
    install_scheme(scheme, (alice, bob), seed + 3)

    if countermeasure:
        bob.udp.rebind_wait = FBSConfig().threshold

    # The victim process receives a sensitive datagram, then exits
    # (releasing its port).
    victim = UdpSocket(bob, 5151)
    sender = UdpSocket(alice)
    sender.sendto(SECRET, bob.address, 5151)
    net.sim.run()
    if not victim.received or victim.received[0][0] != SECRET:
        raise ScenarioError(
            "the victim never received the sensitive datagram; nothing to "
            "record and replay"
        )
    victim.close()

    # The local attacker process grabs the port "right after the
    # original destination principal exited" (or after ``attack_delay``,
    # to model a slower attacker racing the freshness window) ...
    net.sim.run(until=net.sim.now + attack_delay)
    try:
        attacker_socket = UdpSocket(bob, 5151)
    except ValueError:
        # The countermeasure refused the rebind inside the wait.
        return PortReuseOutcome(
            port_rebound=False, plaintexts_recovered=0, recovered=b""
        )

    # ... and the on-path accomplice replays the recorded flow at it.
    for frame in list(recorder.captured):
        recorder.replay(frame, delay=0.1)
    net.sim.run()

    recovered = [payload for payload, _, _ in attacker_socket.received]
    return PortReuseOutcome(
        port_rebound=True,
        plaintexts_recovered=len(recovered),
        recovered=recovered[0] if recovered else b"",
    )
