"""The in-memory wire hop of a batch replay.

A batch replay's inner loop is batch-shaped --
``sender.protect_batch(...)`` produces a list of wire datagrams,
``receiver.unprotect_batch(...)`` consumes one.  :class:`DirectHop` is
the step between the two with no substrate at all: the receiver gets a
new list holding the very datagrams the sender emitted.  The cost
budget's batch replay (``benchmarks/budget/workloads.py``) relays
through it.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["DirectHop"]


class DirectHop:
    """In-memory hand-off: a copy of the batch list, the same ``bytes``
    objects in it."""

    def relay(self, wire: Sequence[bytes]) -> List[bytes]:
        """Carry ``wire`` to the receiver; return what arrived, in order."""
        return list(wire)
