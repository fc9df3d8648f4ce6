"""Simulated clock and discrete-event scheduler.

All time in the simulation is virtual, measured in seconds as a float.
Determinism matters more than precision: events scheduled for the same
instant fire in insertion order (a monotonically increasing sequence
number breaks ties), so a given topology and seed replays identically.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

__all__ = ["Simulator", "CancelToken", "HostClock"]


@dataclass
class CancelToken:
    """Handle returned by :meth:`Simulator.schedule`; cancels the event."""

    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent the associated event from firing."""
        self.cancelled = True


class Simulator:
    """A minimal discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("at t=1.5"))
        sim.run()

    The simulator is also the simulation's clock: components read
    :attr:`now` rather than keeping their own notion of time.  FBS
    timestamps (minutes since the 1996 epoch) are derived from this clock
    by :mod:`repro.core.timestamps`.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue: List[Tuple[float, int, CancelToken, Callable[[], None]]] = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> CancelToken:
        """Run ``action`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, action)

    def schedule_at(self, when: float, action: Callable[[], None]) -> CancelToken:
        """Run ``action`` at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule into the past (when={when}, now={self._now})"
            )
        token = CancelToken()
        heapq.heappush(self._queue, (when, next(self._sequence), token, action))
        return token

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        while self._queue:
            when, _, token, action = heapq.heappop(self._queue)
            if token.cancelled:
                continue
            self._now = when
            action()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            If given, stop once virtual time would pass this value (the
            clock is advanced to ``until``).
        max_events:
            Safety valve against runaway event loops.
        """
        executed = 0
        while self._queue:
            when, _, token, action = self._queue[0]
            if token.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and when > until:
                self._now = until
                return
            heapq.heappop(self._queue)
            self._now = when
            action()
            executed += 1
            if executed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        if until is not None and until > self._now:
            self._now = until

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _, _, token, _ in self._queue if not token.cancelled)


class HostClock:
    """One host's *view* of the shared simulation clock.

    Real machines never agree on the time: each host reads the shared
    :class:`Simulator` through a configurable constant **offset** and a
    relative **drift** rate, modelling imperfect NTP synchronization --
    the "loose time synchronization" the paper's freshness check (R3)
    tolerates and the resilience campaigns stress.

    ``local = sim.now * (1 + drift) + offset``

    Scheduling still uses the shared simulator (events fire in true
    simulation time); only *readings* are skewed, so a skewed host
    stamps and checks FBS timestamps with its own wrong idea of now
    while the network itself stays consistent.
    """

    __slots__ = ("_sim", "offset", "drift")

    def __init__(
        self, sim: Simulator, offset: float = 0.0, drift: float = 0.0
    ) -> None:
        self._sim = sim
        self.offset = 0.0
        self.drift = 0.0
        self.set_skew(offset=offset, drift=drift)

    def now(self) -> float:
        """The host's local time (skewed simulation seconds)."""
        return self._sim.now * (1.0 + self.drift) + self.offset

    def set_skew(self, offset: float = 0.0, drift: float = 0.0) -> None:
        """(Re)configure the skew; ``set_skew()`` restores perfect sync."""
        if drift <= -1.0:
            raise ValueError("drift must keep the clock moving forward")
        self.offset = offset
        self.drift = drift

    @property
    def skewed(self) -> bool:
        """True when this clock disagrees with the simulation clock."""
        return self.offset != 0.0 or self.drift != 0.0
