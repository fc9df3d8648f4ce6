"""Timestamps and the sliding freshness window.

Section 7.2: "The timestamp is encoded as the number of minutes since
00:00 GMT January 1, 1996 GMT.  With 32 bits, the timestamp will not
wrap around in the next 8000 years."  Section 5.2 (R3): "The checking
should be based on a sliding window centered on the current time."

The simulation clock starts at 0; :class:`TimestampCodec` maps simulated
seconds onto the 1996 epoch by a fixed offset: simulated t=0 is the
paper's presentation date, September 1997.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TimestampCodec", "FreshnessWindow", "SIGCOMM97_EPOCH_OFFSET"]

#: Seconds between 1996-01-01 00:00 GMT and 1997-09-14 00:00 GMT
#: (366 + 256 days): where the simulation's t=0 sits.  A float, so the
#: codec's arithmetic stays float-only.
SIGCOMM97_EPOCH_OFFSET = float((366 + 256) * 86400)


@dataclass(frozen=True)
class TimestampCodec:
    """Encode simulation time as minutes-since-1996 (32-bit)."""

    def encode(self, sim_time: float) -> int:
        """Simulation seconds -> 32-bit minute count."""
        minutes = int((sim_time + SIGCOMM97_EPOCH_OFFSET) // 60)
        if not 0 <= minutes <= 0xFFFFFFFF:
            raise ValueError(f"timestamp out of 32-bit range: {minutes}")
        return minutes

    def decode(self, minutes: int) -> float:
        """32-bit minute count -> simulation seconds (start of minute)."""
        return minutes * 60.0 - SIGCOMM97_EPOCH_OFFSET


@dataclass(frozen=True)
class FreshnessWindow:
    """The Fresh() predicate of Figure 4 (R3).

    A timestamp is fresh when it lies within ``half_window`` seconds of
    the current time, in either direction -- a window *centered* on the
    current time to tolerate both transmission delay and clock skew
    between machines (the "loose time synchronization" requirement).
    """

    codec: TimestampCodec
    half_window: float = 120.0

    def is_fresh(self, timestamp_minutes: int, now: float) -> bool:
        """Check the received 32-bit timestamp against the current time.

        Minute resolution means a datagram stamped in minute M could have
        been sent anywhere in [M*60, (M+1)*60); the window accounts for
        the full minute interval, erring on acceptance -- "the use of
        minute resolution is sufficient as the timestamp is only intended
        as a coarse protection against replays".
        """
        stamp_start = self.codec.decode(timestamp_minutes)
        stamp_end = stamp_start + 60.0
        return (
            stamp_end >= now - self.half_window
            and stamp_start <= now + self.half_window
        )
