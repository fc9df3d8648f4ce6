"""The UDP receive queue bounds sojourn, not only length, and a standing
queue serves its newest datagram first.

Every test runs on a stepped clock: ``SteppedUdp`` is a socketless
:class:`UdpTransport` whose ``now`` reads a settable cell, fed through
the loop's own reader callback, so no test sleeps and every waited
time is exact.
"""

import asyncio
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.transport.udp import (
    INTERVAL,
    TARGET,
    UdpTransport,
    UdpTransportConfig,
    _DatagramQueueProtocol,
)

PEER = ("127.0.0.1", 9)


class SteppedUdp(UdpTransport):
    """A :class:`UdpTransport` with no socket and a clock that only moves
    when a test sets it; arrivals enter through the reader callback."""

    def __init__(self, recv_queue: int = 1024) -> None:
        super().__init__(UdpTransportConfig(recv_queue=recv_queue))
        self.clock = 0.0
        self._reader = _DatagramQueueProtocol(self)

    def now(self) -> float:
        return self.clock

    def arrive(self, *payloads: bytes) -> None:
        for payload in payloads:
            self._reader.datagram_received(payload, PEER)

    async def take(self, count: int):
        return [await self.recv(timeout=0) for _ in range(count)]


def _run(scenario):
    return asyncio.run(scenario())


def _standing(t: SteppedUdp, at: float) -> None:
    """Make ``t`` standing at clock ``at``: two datagrams arrive at
    ``at - 0.2``; the first, handed out at ``at - INTERVAL - 0.01``, is
    late and opens the run."""
    t.clock = at - 0.2
    t.arrive(b"opener", b"spare")
    t.clock = at - INTERVAL - 0.01


class TestStepped:
    def test_a_burst_read_back_within_interval_is_never_expired(self):
        async def scenario():
            t = SteppedUdp()
            burst = [b"%d" % i for i in range(10)]
            t.arrive(*burst)
            t.clock = 1000.0  # every datagram waited far past TARGET
            got = []
            for _ in burst:
                got.append(await t.recv(timeout=0))
                t.clock += INTERVAL / 11
            return burst, got, t.stats

        burst, got, stats = _run(scenario)
        assert got == burst
        assert (stats.datagrams_received, stats.queue_drops) == (10, 0)

    def test_a_standing_queue_expires_exactly_the_stale_heads(self):
        async def scenario():
            t = SteppedUdp()
            _standing(t, 1.0)
            first = await t.recv(timeout=0)
            t.arrive(b"stale-1", b"stale-2")
            t.clock = 1.0 - 0.004
            t.arrive(b"fresh-1")
            t.clock = 1.0 - 0.001
            t.arrive(b"fresh-2", b"fresh-3")
            t.clock = 1.0
            got = await t.take(4)
            return first, got, t.stats

        first, got, stats = _run(scenario)
        assert first == b"opener"
        # spare, stale-1 and stale-2 waited past TARGET: expired, and the
        # survivors leave newest first.
        assert got == [b"fresh-3", b"fresh-2", b"fresh-1", None]
        assert (stats.datagrams_received, stats.queue_drops) == (4, 3)

    def test_a_standing_queue_serves_newest_first_when_every_survivor_is_fresh(self):
        async def scenario():
            t = SteppedUdp()
            _standing(t, 1.0)
            await t.recv(timeout=0)
            t.clock = 1.0
            t.arrive(b"f1", b"f2", b"f3")
            t.clock = 1.0 + TARGET  # each waited TARGET: fresh, never expired
            return await t.take(4), t.stats

        got, stats = _run(scenario)
        # Only the spare is expired; every handout is fresh, and that does
        # not end the standing state.
        assert got == [b"f3", b"f2", b"f1", None]
        assert (stats.datagrams_received, stats.queue_drops) == (4, 1)

    def test_a_standing_queue_never_expires_its_last_datagram(self):
        async def scenario():
            t = SteppedUdp()
            _standing(t, 1.0)
            await t.recv(timeout=0)
            t.arrive(b"old", b"older still")
            t.clock = 5.0
            return await t.take(2), t.stats

        got, stats = _run(scenario)
        assert got == [b"older still", None]
        assert (stats.datagrams_received, stats.queue_drops) == (2, 2)

    def test_standing_holds_through_fresh_handouts_until_a_receive_finds_the_queue_empty(self):
        async def scenario():
            t = SteppedUdp()
            _standing(t, 1.0)
            await t.recv(timeout=0)
            t.clock = 1.0
            held = []
            for i in range(5):  # each handout fresh, each empties the queue
                t.arrive(b"%d" % i)
                held.append(await t.recv(timeout=0))
                t.clock += INTERVAL / 2
            t.arrive(b"old", b"new")
            t.clock += 0.01
            still = await t.recv(timeout=0)
            empty = await t.recv(timeout=0)
            t.arrive(b"late", b"later")
            t.clock += 0.01
            return held, still, empty, await t.take(2), t.stats.queue_drops

        held, still, empty, after, drops = _run(scenario)
        assert held == [b"0", b"1", b"2", b"3", b"4"]
        # Two intervals of fresh handouts and no expiry later the queue
        # still stands: `old` is expired and `new` served.  A receive
        # that finds the queue empty ends it: `late` is served, first.
        assert (still, empty, after) == (b"new", None, [b"late", b"later"])
        assert drops == 2  # the spare, then `old`

    def test_an_on_time_handout_ends_a_run_of_late_ones(self):
        async def scenario():
            t = SteppedUdp()
            t.arrive(b"late")
            t.clock = 0.03
            t.arrive(b"on time")
            ran = await t.take(2)  # the late one opens a run, the next ends it
            t.arrive(b"a", b"b")
            t.clock = 0.03 + INTERVAL + 0.01
            return ran, await t.take(3), t.stats.queue_drops

        ran, got, drops = _run(scenario)
        assert ran == [b"late", b"on time"]
        assert (got, drops) == ([b"a", b"b", None], 0)

    def test_an_empty_receive_clears_the_standing_state(self):
        async def scenario():
            t = SteppedUdp()
            _standing(t, 1.0)
            await t.recv(timeout=0)
            t.clock = 1.0
            await t.recv(timeout=0)  # the spare, the queue's last
            empty = await t.recv(timeout=0)
            t.arrive(b"late", b"later")
            t.clock = 1.05
            return empty, await t.take(3), t.stats.queue_drops

        empty, got, drops = _run(scenario)
        assert empty is None
        assert got == [b"late", b"later", None]
        assert drops == 0

    def test_drain_returns_everything_queued_even_when_standing(self):
        async def scenario():
            t = SteppedUdp()
            _standing(t, 1.0)
            await t.recv(timeout=0)
            t.arrive(b"stale")
            t.clock = 1.0
            return t.drain(), t.stats

        kept, stats = _run(scenario)
        assert kept == [b"spare", b"stale"]
        assert (stats.datagrams_received, stats.queue_drops) == (3, 0)

    def test_close_keeps_everything_queued_even_when_standing(self):
        async def scenario():
            t = SteppedUdp()
            _standing(t, 1.0)
            await t.recv(timeout=0)
            t.arrive(b"stale")
            t.clock = 1.0
            await t.close()
            return t.closed, t.drain()

        assert _run(scenario) == (True, [b"spare", b"stale"])


# -- the law, against a model written from the rule --------------------------------


class Model:
    """The queue the rule describes, as datagram ids and arrival times."""

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.queue = deque()
        self.late_since = None  # first late handout of the current run

    def arrive(self, ident: int, now: float) -> None:
        if len(self.queue) < self.bound:
            self.queue.append((ident, now))

    def standing(self, now: float) -> bool:
        return self.late_since is not None and now - self.late_since >= INTERVAL

    def hand_out(self, now: float) -> int:
        """The id one receive from a non-empty queue hands out."""
        if self.standing(now):
            while len(self.queue) > 1 and now - self.queue[0][1] > TARGET:
                self.queue.popleft()
            return self.queue.pop()[0]
        ident, arrived = self.queue.popleft()
        if now - arrived <= TARGET:
            self.late_since = None
        elif self.late_since is None:
            self.late_since = now
        return ident

    def clear(self) -> None:
        self.late_since = None


#: How far the clock steps: either side of TARGET and of INTERVAL.
STEPS = st.sampled_from((0.0, 0.001, TARGET, 0.006, 0.03, INTERVAL, 0.101, 1.0))
#: Arrivals come in bursts, receives and clock steps are frequent and
#: drains rare, so that queues stand.
OPS = st.sampled_from(
    ("arrive",) * 4 + ("receive",) * 4 + ("poll",) * 2 + ("drain",) + ("step",) * 4
).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        st.integers(1, 8) if kind == "arrive" else STEPS if kind == "step" else st.none(),
    )
)


#: A receive that found the queue empty while its loop turn fell due: an
#: arrival during the turn hid the empty queue, and the standing run
#: outlived it (the last receive handed out 16, the model 15).
EMPTY_AT_THE_TURN = [
    ("arrive", 1), ("arrive", 1), ("receive", None), ("receive", None), ("poll", None),
    ("arrive", 2), ("receive", None), ("receive", None), ("arrive", 1), ("arrive", 1),
    ("receive", None), ("receive", None), ("arrive", 1), ("receive", None), ("arrive", 1),
    ("receive", None), ("arrive", 1), ("arrive", 1), ("receive", None), ("receive", None),
    ("poll", None), ("arrive", 1), ("arrive", 1), ("receive", None), ("arrive", 1),
    ("receive", None), ("arrive", 1), ("step", 0.006), ("receive", None), ("receive", None),
    ("step", 0.1), ("receive", None), ("arrive", 1), ("arrive", 1), ("receive", None),
]  # fmt: skip


@settings(deadline=None)
@given(bound=st.sampled_from((1, 2, 5, 1024)), ops=st.lists(OPS, min_size=20, max_size=100))
@example(bound=2, ops=EMPTY_AT_THE_TURN)
def test_the_sojourn_law(bound, ops):
    async def scenario():
        t = SteppedUdp(recv_queue=bound)
        model = Model(bound)
        loop = asyncio.get_running_loop()
        arrived_at = {}
        handed, drained = [], []
        arrivals = 0

        def arrive():
            nonlocal arrivals
            arrived_at[arrivals] = t.clock
            model.arrive(arrivals, t.clock)
            t.arrive(b"%d" % arrivals)
            arrivals += 1

        for op in ops:
            standing = model.standing(t.clock)
            if op[0] == "arrive":
                for _ in range(op[1]):
                    arrive()
            elif op[0] == "step":
                t.clock += op[1]
            elif op[0] == "drain":
                got = [int(p) for p in t.drain()]
                assert got == [ident for ident, _at in model.queue]
                drained += got
                model.queue.clear()
            elif not model.queue:
                model.clear()
                if op[0] == "poll":
                    assert await t.recv(timeout=0) is None
                else:
                    # The receiver parks; the reader callback wakes it.
                    loop.call_soon(arrive)
                    got = int(await t.recv(timeout=1.0))
                    assert got == model.queue.popleft()[0] == arrivals - 1
                    handed.append(got)
            else:
                queued = [int(payload) for payload, _addr, _at in t._queue]
                ident = model.hand_out(t.clock)
                got = int(await t.recv(timeout=0 if op[0] == "poll" else 1.0))
                assert got == ident
                # Arrival order unless standing, then the newest queued.
                assert got == (queued[-1] if standing else queued[0])
                if standing and t.clock - arrived_at[got] > TARGET:
                    # A late handout from a standing queue was its last.
                    assert not t._queue
                handed.append(got)
            stats = t.stats
            assert stats.datagrams_received + stats.queue_drops == arrivals
            assert stats.datagrams_received == len(handed) + len(drained) + len(t._queue)
            assert len(handed) == len(set(handed))

    asyncio.run(scenario())
