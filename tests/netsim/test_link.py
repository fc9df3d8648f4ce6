"""Ethernet segment tests; a link is a segment of two stations."""

import pytest

from repro.netsim.addresses import IPAddress
from repro.netsim.clock import Simulator
from repro.netsim.link import (
    ETHERNET_FRAMING_OVERHEAD,
    EthernetSegment,
    LinkConditions,
)


def _link(sim, **kwargs):
    """A point-to-point link: two stations, one sending to the other.

    Returns ``(segment, send, arrivals)``; ``arrivals`` collects the far
    end's ``(time, frame)`` pairs.
    """
    seg = EthernetSegment(sim, **kwargs)
    arrivals = []
    near = seg.attach(lambda f: None)
    seg.attach(lambda f: arrivals.append((sim.now, f)))
    return seg, lambda frame: seg.send(near, frame), arrivals


class TestLink:
    def test_delivery(self):
        sim = Simulator()
        _, send, arrivals = _link(sim)
        send(b"frame-1")
        sim.run()
        assert [f for _, f in arrivals] == [b"frame-1"]

    def test_serialization_time(self):
        seg = EthernetSegment(Simulator(), bandwidth_bps=8_000_000)
        assert seg.serialization_time(1000 - ETHERNET_FRAMING_OVERHEAD) == pytest.approx(
            0.001
        )

    def test_frames_serialize_fifo(self):
        sim = Simulator()
        seg, send, arrivals = _link(sim, bandwidth_bps=1_000_000, propagation_delay=0.0)
        send(b"a" * 100)
        send(b"b" * 100)
        sim.run()
        assert [f for _, f in arrivals] == [b"a" * 100, b"b" * 100]
        gap = arrivals[1][0] - arrivals[0][0]
        assert gap == pytest.approx(seg.serialization_time(100))

    def test_propagation_delay(self):
        sim = Simulator()
        _, send, arrivals = _link(sim, bandwidth_bps=1e9, propagation_delay=0.5)
        send(b"x")
        sim.run()
        assert arrivals[0][0] >= 0.5

    def test_loss(self):
        sim = Simulator()
        seg, send, arrivals = _link(
            sim, conditions=LinkConditions(loss_probability=1.0), seed=1
        )
        for _ in range(10):
            send(b"gone")
        sim.run()
        assert arrivals == []
        assert seg.frames_dropped == 10

    def test_duplication(self):
        sim = Simulator()
        _, send, arrivals = _link(
            sim, conditions=LinkConditions(duplication_probability=1.0), seed=2
        )
        send(b"twice")
        sim.run()
        assert [f for _, f in arrivals] == [b"twice", b"twice"]

    def test_reordering_possible(self):
        sim = Simulator()
        _, send, arrivals = _link(
            sim,
            bandwidth_bps=1e9,
            conditions=LinkConditions(reorder_jitter=0.1),
            seed=3,
        )
        frames = [bytes([i]) for i in range(30)]
        for frame in frames:
            send(frame)
        sim.run()
        received = [f for _, f in arrivals]
        assert sorted(received) == sorted(frames)
        assert received != frames  # with jitter 0.1 over 30 frames, certain

    def test_invalid_conditions(self):
        with pytest.raises(ValueError):
            LinkConditions(loss_probability=1.5)
        with pytest.raises(ValueError):
            LinkConditions(reorder_jitter=-1)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            EthernetSegment(Simulator(), bandwidth_bps=0)


class TestEthernetSegment:
    def test_broadcast_to_all_but_sender(self):
        sim = Simulator()
        seg = EthernetSegment(sim)
        inboxes = [[], [], []]
        ids = [seg.attach(inboxes[i].append) for i in range(3)]
        seg.send(ids[0], b"hello")
        sim.run()
        assert inboxes[0] == []
        assert inboxes[1] == [b"hello"]
        assert inboxes[2] == [b"hello"]

    def test_tap_sees_everything(self):
        sim = Simulator()
        seg = EthernetSegment(sim)
        sniffer = []
        station = seg.attach(lambda f: None)
        seg.attach_tap(sniffer.append)
        seg.send(station, b"frame")
        sim.run()
        assert sniffer == [b"frame"]

    def test_medium_serializes_across_stations(self):
        sim = Simulator()
        seg = EthernetSegment(sim, bandwidth_bps=1_000_000, propagation_delay=0.0)
        a = seg.attach(lambda f: None)
        b = seg.attach(lambda f: None)
        t1 = seg.send(a, b"x" * 87)  # 87+38 = 125 bytes = 1ms at 1 Mb/s
        t2 = seg.send(b, b"y" * 87)
        assert t2 == pytest.approx(t1 + 0.001)

    def test_unknown_station_rejected(self):
        seg = EthernetSegment(Simulator())
        with pytest.raises(ValueError):
            seg.send(5, b"x")

    def test_loss_applies(self):
        sim = Simulator()
        seg = EthernetSegment(
            sim, conditions=LinkConditions(loss_probability=1.0), seed=4
        )
        inbox = []
        a = seg.attach(lambda f: None)
        seg.attach(inbox.append)
        seg.send(a, b"lost")
        sim.run()
        assert inbox == []
        assert seg.frames_dropped == 1


def _bit_difference(a: bytes, b: bytes) -> int:
    assert len(a) == len(b)
    return sum(bin(x ^ y).count("1") for x, y in zip(a, b))


class TestLinkFaultModel:
    def test_corruption_flips_exactly_one_bit(self):
        sim = Simulator()
        seg, send, arrivals = _link(
            sim, conditions=LinkConditions(corruption_probability=1.0), seed=5
        )
        send(b"payload under test")
        sim.run()
        assert len(arrivals) == 1
        assert _bit_difference(arrivals[0][1], b"payload under test") == 1
        assert seg.frames_corrupted == 1

    def test_corruption_probability_validated(self):
        with pytest.raises(ValueError):
            LinkConditions(corruption_probability=-0.1)
        with pytest.raises(ValueError):
            LinkConditions(corruption_probability=1.5)

    def test_duplicates_consume_airtime_and_count(self):
        sim = Simulator()
        seg, send, arrivals = _link(
            sim,
            bandwidth_bps=1_000_000,
            propagation_delay=0.0,
            conditions=LinkConditions(duplication_probability=1.0),
            seed=6,
        )
        frame = b"x" * (125 - ETHERNET_FRAMING_OVERHEAD)  # 1 ms on the wire
        send(frame)
        sim.run()
        # The copy is a second transmission: it serializes after the
        # original instead of arriving for free at the same instant.
        assert len(arrivals) == 2
        assert arrivals[1][0] - arrivals[0][0] == pytest.approx(0.001)
        assert seg.frames_duplicated == 1
        assert seg.frames_sent == 2
        assert seg.bytes_sent == 2 * len(frame)
        assert seg.busy_until == pytest.approx(0.002)

    def test_conditions_swappable_mid_run(self):
        sim = Simulator()
        seg, send, arrivals = _link(sim, seed=7)
        send(b"clean")
        seg.conditions = LinkConditions(loss_probability=1.0)
        send(b"lost")
        sim.run()
        assert [f for _, f in arrivals] == [b"clean"]
        assert seg.frames_dropped == 1


class TestSegmentFaultModel:
    def test_duplicates_serialize_and_count(self):
        sim = Simulator()
        seg = EthernetSegment(
            sim,
            bandwidth_bps=1_000_000,
            propagation_delay=0.0,
            conditions=LinkConditions(duplication_probability=1.0),
            seed=8,
        )
        arrivals = []
        a = seg.attach(lambda f: None)
        seg.attach(lambda f: arrivals.append(sim.now))
        frame = b"x" * (125 - ETHERNET_FRAMING_OVERHEAD)  # 1 ms on the wire
        seg.send(a, frame)
        sim.run()
        assert len(arrivals) == 2
        assert arrivals[1] - arrivals[0] == pytest.approx(0.001)
        assert seg.frames_duplicated == 1
        assert seg.frames_sent == 2
        assert seg.bytes_sent == 2 * len(frame)

    def test_reorder_jitter_applied_per_delivery(self):
        # One wire frame, two receivers: each delivery draws its own
        # jitter, so arrival times differ (the old model jittered the
        # frame once, making "reordering" invisible between stations).
        sim = Simulator()
        seg = EthernetSegment(
            sim,
            propagation_delay=0.0,
            conditions=LinkConditions(reorder_jitter=0.05),
            seed=9,
        )
        times = {}
        a = seg.attach(lambda f: None)
        seg.attach(lambda f: times.setdefault("b", sim.now))
        seg.attach(lambda f: times.setdefault("c", sim.now))
        seg.send(a, b"jittered")
        sim.run()
        assert times["b"] != times["c"]

    def test_corruption_is_one_wire_signal(self):
        # A corrupted frame is damaged on the medium: every station and
        # the tap see the same damaged bytes, not independent damage.
        sim = Simulator()
        seg = EthernetSegment(
            sim, conditions=LinkConditions(corruption_probability=1.0), seed=10
        )
        inbox_b, inbox_c, sniffed = [], [], []
        a = seg.attach(lambda f: None)
        seg.attach(inbox_b.append)
        seg.attach(inbox_c.append)
        seg.attach_tap(sniffed.append)
        seg.send(a, b"frame on the wire")
        sim.run()
        assert seg.frames_corrupted == 1
        assert inbox_b == inbox_c == sniffed
        assert _bit_difference(inbox_b[0], b"frame on the wire") == 1


ADDRESSES = [IPAddress(f"10.0.0.{i + 1}") for i in range(6)]


class TestLinkLayerAddressing:
    def _segment(self):
        sim = Simulator()
        seg = EthernetSegment(sim)
        inboxes = {name: [] for name in ("a", "b", "c", "promiscuous", "tap")}
        ids = {
            name: seg.attach(inboxes[name].append, address)
            for name, address in zip(("a", "b", "c"), ADDRESSES)
        }
        ids["promiscuous"] = seg.attach(inboxes["promiscuous"].append)
        seg.attach_tap(inboxes["tap"].append)
        return sim, seg, ids, inboxes

    def test_frame_interrupts_only_the_station_it_is_sent_to(self):
        sim, seg, ids, inboxes = self._segment()
        seg.send(ids["a"], b"for b", next_hop=ADDRESSES[1])
        sim.run()
        assert inboxes["b"] == [b"for b"]
        assert inboxes["a"] == inboxes["c"] == []

    def test_unaddressed_station_and_tap_hear_addressed_frames(self):
        sim, seg, ids, inboxes = self._segment()
        seg.send(ids["a"], b"for b", next_hop=ADDRESSES[1])
        sim.run()
        assert inboxes["promiscuous"] == inboxes["tap"] == [b"for b"]

    def test_send_without_next_hop_is_a_broadcast(self):
        sim, seg, ids, inboxes = self._segment()
        seg.send(ids["promiscuous"], b"to all")
        sim.run()
        assert inboxes["a"] == inboxes["b"] == inboxes["c"] == [b"to all"]
        assert inboxes["promiscuous"] == []

    def test_sender_never_hears_its_own_frame(self):
        sim, seg, ids, inboxes = self._segment()
        seg.send(ids["a"], b"to myself", next_hop=ADDRESSES[0])
        sim.run()
        assert inboxes["a"] == []

    def test_next_hop_nobody_holds_reaches_only_the_promiscuous(self):
        sim, seg, ids, inboxes = self._segment()
        seg.send(ids["a"], b"void", next_hop=IPAddress("10.0.0.99"))
        sim.run()
        assert inboxes["b"] == inboxes["c"] == []
        assert inboxes["promiscuous"] == inboxes["tap"] == [b"void"]
        assert seg.frames_sent == 1  # the airtime was spent all the same


class TestSameWireSameDice:
    """Who listens must not move the seeded fault stream.

    The same 200 frames cross a lossy, duplicating, corrupting,
    jittering segment twice: once with every station attached by
    address (only the next hop is interrupted), once with every station
    promiscuous (each frame interrupts all of them, the behaviour before
    link-layer addressing).
    """

    CONDITIONS = LinkConditions(
        loss_probability=0.1,
        duplication_probability=0.1,
        corruption_probability=0.2,
        reorder_jitter=0.003,
    )
    COUNTERS = (
        "frames_sent",
        "frames_dropped",
        "frames_duplicated",
        "frames_corrupted",
        "bytes_sent",
    )

    def _run(self, addressed):
        sim = Simulator()
        seg = EthernetSegment(sim, conditions=self.CONDITIONS, seed=18)
        arrivals = [[] for _ in ADDRESSES]
        ids = [
            seg.attach(
                lambda f, inbox=inbox: inbox.append((sim.now, f)),
                address if addressed else None,
            )
            for inbox, address in zip(arrivals, ADDRESSES)
        ]
        for n in range(200):
            sender = n % len(ids)
            target = (sender + 1 + n % (len(ids) - 1)) % len(ids)
            # The target is written three times: one flipped bit cannot
            # hide whom a frame was for from ``_meant_for``.
            frame = bytes([target]) * 3 + n.to_bytes(2, "big") * 20
            seg.send(ids[sender], frame, next_hop=ADDRESSES[target])
            sim.run(until=sim.now + 0.001)
        sim.run()
        return seg, arrivals

    @staticmethod
    def _meant_for(frame):
        return sorted(frame[:3])[1]

    def test_addressed_station_sees_the_same_arrivals(self):
        _, addressed = self._run(addressed=True)
        _, promiscuous = self._run(addressed=False)
        for index, inbox in enumerate(addressed):
            assert inbox == [
                (when, frame)
                for when, frame in promiscuous[index]
                if self._meant_for(frame) == index
            ]
            assert len(inbox) > 20
        assert sum(map(len, addressed)) * 4 < sum(map(len, promiscuous))

    def test_segment_counters_are_identical(self):
        addressed, _ = self._run(addressed=True)
        promiscuous, _ = self._run(addressed=False)
        for name in self.COUNTERS:
            assert getattr(addressed, name) == getattr(promiscuous, name) > 0

    def test_rng_stream_ends_in_the_same_state(self):
        addressed, _ = self._run(addressed=True)
        promiscuous, _ = self._run(addressed=False)
        assert addressed._rng.getstate() == promiscuous._rng.getstate()
