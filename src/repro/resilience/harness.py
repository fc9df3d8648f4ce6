"""The scenario harness: real FBS traffic under scripted faults.

One :class:`ScenarioHarness` builds a three-host topology on a shared
Ethernet segment:

* ``alice`` (sender) and ``bob`` (receiver), both enrolled in one FBS
  domain with encryption on, each with its own tracer and registry;
* ``mallory`` (attacker), attached to the segment but *not* enrolled --
  she sends spoofed raw datagrams and, via a promiscuous tap, captures
  genuine frames to tamper with or replay.

The harness schedules the scenario's datagram stream and its fault
script into the simulator, runs the simulation to quiescence, and
packages everything the invariant checks need into a
:class:`ScenarioResult`.  All randomness is drawn from RNGs seeded from
``(campaign seed, scenario name)``, so one seed always produces one
byte-identical outcome.
"""

from __future__ import annotations

import random as _random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.host import Host
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet
from repro.netsim.link import EthernetSegment
from repro.transport.netsim import NetsimTransport
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.resilience.scenario import Scenario

__all__ = ["ScenarioHarness", "ScenarioResult", "RECEIVER_PORT"]

#: The UDP port bob listens on.
RECEIVER_PORT = 4000

#: IPv4 header bytes to skip when flipping bits in a captured frame
#: (tampering the IP header itself is caught by the IP checksum before
#: FBS ever sees the datagram -- a different, already-tested layer).
_IP_HEADER_LEN = 20

#: Seconds past the last scheduled send the reassembly probe keeps
#: watching (covers propagation + jitter + duplicate serialization).
_DRAIN_SECONDS = 2.0


def _derive_seed(campaign_seed: int, scenario_name: str, lane: int) -> int:
    """A stable per-(scenario, lane) seed.  ``zlib.crc32`` rather than
    ``hash()``: the latter is salted per process and would break
    run-to-run determinism."""
    return (campaign_seed * 1_000_003 + zlib.crc32(scenario_name.encode()) + lane) & 0x7FFFFFFF


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, ready for invariant checks."""

    scenario: Scenario
    seed: int
    #: Payloads scheduled for sending, in order (index = sequence number).
    sent: List[bytes] = field(default_factory=list)
    #: Payloads the receiver's application actually saw, in order.
    delivered: List[bytes] = field(default_factory=list)
    #: Receiver-side trace as event dicts, in emission order.
    events: List[Dict[str, object]] = field(default_factory=list)
    #: Receiver registry counters (rendered name -> int).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Attack-traffic bookkeeping.
    forged_sent: int = 0
    tampered_sent: int = 0
    replays_sent: int = 0
    #: Receiver IP-stack stats.
    receiver_packets_sent: int = 0
    receiver_bad_headers: int = 0
    #: Reassembly memory probe.
    reassembly_max_pending: int = 0
    reassembly_probe_violations: int = 0
    reassembly_overflow_drops: int = 0
    #: Segment-level fault statistics.
    frames_sent: int = 0
    frames_dropped: int = 0
    frames_duplicated: int = 0
    frames_corrupted: int = 0
    #: End-of-run simulation clock.
    finished_at: float = 0.0

    @property
    def delivered_unique(self) -> int:
        return len(set(self.delivered))

    @property
    def goodput(self) -> float:
        return self.delivered_unique / len(self.sent) if self.sent else 0.0


class ScenarioHarness:
    """Builds, runs, and harvests one fault-injection scenario.

    ``domain`` is the :class:`FBSDomain` both ends enrolled in: what
    enrolment fixed, for a judge that re-derives the keys."""

    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.scenario = scenario
        self.seed = seed
        self._attack_rng = _random.Random(
            _derive_seed(seed, scenario.name, lane=1)
        )
        payload_rng = _random.Random(_derive_seed(seed, scenario.name, lane=2))

        self.net = Network(seed=_derive_seed(seed, scenario.name, lane=3))
        self.net.add_segment(
            "lan", "10.0.0.0", conditions=scenario.conditions
        )
        self.sender = self.net.add_host("alice", segment="lan", mtu=scenario.mtu)
        self.receiver = self.net.add_host("bob", segment="lan", mtu=scenario.mtu)
        self.attacker = self.net.add_host("mallory", segment="lan", mtu=scenario.mtu)

        config = FBSConfig(replay_guard_size=scenario.replay_guard)
        self.domain = domain = FBSDomain(
            seed=_derive_seed(seed, scenario.name, lane=4), config=config
        )
        self._sink = RingBufferSink(capacity=1 << 17)
        tracer = Tracer(self._sink, now=lambda: self.net.sim.now)
        self.sender_binding = domain.enroll_host(
            self.sender, encrypt_all=True
        )
        self.receiver_binding = domain.enroll_host(
            self.receiver, encrypt_all=True, tracer=tracer
        )

        # Both ends go through the transport interface: the adapter is
        # differentially pinned byte-identical to hand-wired UdpSockets,
        # so every seeded scenario report stays exactly as it was.
        self._rx = NetsimTransport(
            self.receiver, local_port=RECEIVER_PORT, recv_queue=1 << 16
        )
        self._tx = NetsimTransport(
            self.sender, remote=(self.receiver.address, RECEIVER_PORT)
        )

        # Promiscuous capture of genuine alice->bob frames, for the
        # tamper/replay injections (the Section 7.3 sniffer, weaponized).
        self._captured: List[bytes] = []
        self.segment.attach_tap(self._capture)

        # Attack bookkeeping (filled by the inject_* methods).
        self.forged_sent = 0
        self.tampered_sent = 0
        self.replays_sent = 0

        # -- traffic schedule (payloads pre-generated: deterministic). --
        self._sent: List[bytes] = []
        for i in range(scenario.datagrams):
            filler = bytes(
                payload_rng.randrange(256)
                for _ in range(max(0, scenario.payload_size - 12))
            )
            payload = b"seq %06d|" % i + filler
            self._sent.append(payload)
            self.net.sim.schedule_at(
                i * scenario.interval, lambda p=payload: self._tx.send_sync(p)
            )

        # -- fault schedule (fractions of the send window). --
        window = scenario.datagrams * scenario.interval
        for fault in scenario.faults:
            self.net.sim.schedule_at(
                fault.at * window, lambda f=fault: f.apply(self)
            )

        # -- reassembly memory probe. --
        self._probe_until = window + _DRAIN_SECONDS
        self._max_pending = 0
        self._probe_violations = 0
        self.net.sim.schedule_at(0.0, self._probe_reassembler)

    # -- topology accessors (used by faults) -----------------------------------

    @property
    def segment(self) -> EthernetSegment:
        return self.net.segment("lan")

    def host(self, role: str) -> Host:
        """Resolve a fault's ``target`` role to its host."""
        return {
            "sender": self.sender,
            "receiver": self.receiver,
            "attacker": self.attacker,
        }[role]

    def binding(self, role: str):
        """Resolve a fault's ``target`` role to its FBS mapping."""
        return {
            "sender": self.sender_binding,
            "receiver": self.receiver_binding,
        }[role]

    # -- attack injections (called by faults, inside sim events) ---------------

    def _capture(self, frame: bytes) -> None:
        try:
            packet = IPv4Packet.decode(frame)
        except ValueError:
            return
        if (
            packet.header.src == self.sender.address
            and packet.header.dst == self.receiver.address
            and packet.header.fragment_offset == 0
            and not packet.header.more_fragments
        ):
            self._captured.append(frame)

    def inject_forgeries(self, count: int, size: int) -> None:
        """Mallory sends raw datagrams with alice's source address and
        random payloads."""
        for _ in range(count):
            payload = bytes(
                self._attack_rng.randrange(256) for _ in range(size)
            )
            packet = IPv4Packet(
                header=IPv4Header(
                    src=self.sender.address,
                    dst=self.receiver.address,
                    proto=int(IPProtocol.UDP),
                ),
                payload=payload,
            )
            self.attacker.send_raw(packet)
            self.forged_sent += 1

    def inject_tampered(self, count: int) -> None:
        """Re-deliver captured frames with one bit flipped past the IP
        header (inside the FBS header or protected body)."""
        if not self._captured:
            return
        for i in range(count):
            frame = self._captured[i % len(self._captured)]
            if len(frame) <= _IP_HEADER_LEN:
                continue
            position = self._attack_rng.randrange(
                (len(frame) - _IP_HEADER_LEN) * 8
            )
            mangled = bytearray(frame)
            mangled[_IP_HEADER_LEN + (position >> 3)] ^= 1 << (position & 7)
            self.receiver.frame_arrived(bytes(mangled))
            self.tampered_sent += 1

    def inject_replays(self, count: int) -> None:
        """Re-deliver captured frames verbatim (wire-level replay)."""
        for i in range(min(count, len(self._captured))):
            self.receiver.frame_arrived(self._captured[i])
            self.replays_sent += 1

    # -- reassembly probe -------------------------------------------------------

    def _probe_reassembler(self) -> None:
        reassembler = self.receiver.stack.reassembler
        pending = reassembler.pending
        if pending > self._max_pending:
            self._max_pending = pending
        if pending > reassembler.max_partials:
            self._probe_violations += 1
        if self.net.sim.now < self._probe_until:
            self.net.sim.schedule(
                self.scenario.interval, self._probe_reassembler
            )

    # -- run --------------------------------------------------------------------

    def run(self) -> ScenarioResult:
        """Run the simulation to quiescence and harvest the result."""
        self.net.sim.run()
        snapshot = self.receiver_binding.endpoint.registry.snapshot()
        counters = {
            name: value
            for name, value in snapshot["counters"].items()
            if isinstance(value, int)
        }
        return ScenarioResult(
            scenario=self.scenario,
            seed=self.seed,
            sent=self._sent,
            delivered=self._rx.drain(),
            events=[event.to_dict() for event in self._sink.events],
            counters=counters,
            forged_sent=self.forged_sent,
            tampered_sent=self.tampered_sent,
            replays_sent=self.replays_sent,
            receiver_packets_sent=self.receiver.stack.stats.packets_sent,
            receiver_bad_headers=self.receiver.stack.stats.bad_headers,
            reassembly_max_pending=self._max_pending,
            reassembly_probe_violations=self._probe_violations,
            reassembly_overflow_drops=self.receiver.stack.reassembler.overflow_drops,
            frames_sent=self.segment.frames_sent,
            frames_dropped=self.segment.frames_dropped,
            frames_duplicated=self.segment.frames_duplicated,
            frames_corrupted=self.segment.frames_corrupted,
            finished_at=self.net.sim.now,
        )
