"""Optional soft-state replay suppression (an extension beyond the paper).

Section 6.2 accepts that "if an attacker is able to replay a datagram
within the allowable 'freshness' window, the attack will succeed", and
notes that nonce-based schemes fix this only at the price of hard state
and extra messages.  There is, however, a middle point the paper's own
machinery makes cheap: remember a bounded set of recently accepted
datagrams and refuse exact duplicates.

* The memory is **soft state**: losing it (reboot, eviction) merely
  re-admits replays for the remainder of the freshness window -- it can
  never break legitimate traffic, so datagram semantics are preserved.
* The identifier is the (sfl, confounder, MAC) triple.  Confounders are
  drawn per datagram, so two legitimate datagrams collide only if the
  sender repeats a confounder within a flow inside the window -- with
  32-bit confounders, negligible at LAN rates.
* Memory is bounded by an LRU of ``capacity`` entries; entries older
  than the freshness span are purged since the timestamp check already
  rejects anything that old.  An entry the bound drops while its
  datagram is still fresh is counted (``fresh_evictions``): past that
  point a replay of it is delivered again, so the guard's real memory
  is its last ``capacity`` accepted datagrams, ``oldest_age`` seconds.

Trade-off surfaced honestly: benign *network* duplication (which the
paper's FBS deliberately lets through) is now suppressed too --
enabling the guard moves FBS from "at-least-once-ish" to "at-most-once"
delivery of each protected datagram.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro.core.errors import ReceiveError
from repro.core.header import FBSHeader
from repro.obs.events import ReplayDropped
from repro.obs.tracer import NULL_TRACER

__all__ = ["DuplicateDatagramError", "ReplayGuard"]


class DuplicateDatagramError(ReceiveError):
    """An exact duplicate of a recently accepted datagram arrived."""


class ReplayGuard:
    """Bounded LRU memory of recently accepted datagrams."""

    def __init__(self, capacity: int, freshness_half_window: float) -> None:
        if capacity < 1:
            raise ValueError("replay guard capacity must be positive")
        self.capacity = capacity
        # The guard's memory is exactly the freshness span: a datagram
        # stamped in minute M stays fresh for up to 2*half_window + 60 s
        # (the minute-resolution slack), so an entry expiring any
        # earlier would re-admit a replay the freshness check still
        # accepts.
        self.window = 2.0 * freshness_half_window + 60.0
        self._seen: "OrderedDict[Tuple[int, int, bytes], float]" = OrderedDict()
        #: Entries the capacity bound dropped while still fresh.
        self.fresh_evictions = 0
        #: Event tracer; the owning protocol engine replaces this with
        #: its own so replay drops land in the endpoint's trace.
        self.tracer = NULL_TRACER

    @staticmethod
    def _key(header: FBSHeader) -> Tuple[int, int, bytes]:
        return (header.sfl, header.confounder, header.mac)

    def check_and_remember(self, header: FBSHeader, now: float) -> None:
        """Record a datagram; raise if it was already accepted recently.

        Call *after* MAC verification succeeds (an attacker must not be
        able to poison the memory with forged headers).
        """
        self._expire(now)
        key = self._key(header)
        if key in self._seen:
            tr = self.tracer
            if tr.enabled:
                tr.emit(ReplayDropped(sfl=header.sfl))
            raise DuplicateDatagramError(
                f"duplicate datagram in flow {header.sfl:#x} "
                f"(confounder {header.confounder:#x})"
            )
        self._seen[key] = now
        if len(self._seen) > self.capacity:
            # _expire has just run: every entry left is fresh.
            self._seen.popitem(last=False)
            self.fresh_evictions += 1

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        while self._seen:
            _, oldest = next(iter(self._seen.items()))
            if oldest >= cutoff:
                break
            self._seen.popitem(last=False)

    def oldest_age(self, now: float) -> float:
        """Seconds since the oldest remembered datagram was accepted
        (0 when the guard is empty): how far back a replay is refused."""
        for accepted in self._seen.values():
            return now - accepted
        return 0.0

    def flush(self) -> None:
        """Drop all memory (soft state: always safe, only weakens the
        guard until it refills)."""
        self._seen.clear()

    def __len__(self) -> int:
        return len(self._seen)
