"""Packet trace records and containers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

from repro.netsim.addresses import FiveTuple, IPAddress

__all__ = ["PacketRecord", "Trace"]


@dataclass(frozen=True)
class PacketRecord:
    """One sniffed datagram: arrival time, conversation key, size."""

    time: float
    five_tuple: FiveTuple
    size: int  # transport payload bytes

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"timestamp {self.time} is not a finite time >= 0")
        if self.size < 0:
            raise ValueError("negative size")


class Trace:
    """An ordered sequence of packet records plus metadata."""

    def __init__(
        self,
        records: Optional[Iterable[PacketRecord]] = None,
        description: str = "",
    ) -> None:
        self._records: List[PacketRecord] = list(records or [])
        self.description = description
        self._sorted = all(
            self._records[i].time <= self._records[i + 1].time
            for i in range(len(self._records) - 1)
        )

    def sort(self) -> None:
        """Time-order the records (stable)."""
        if not self._sorted:
            self._records.sort(key=lambda r: r.time)
            self._sorted = True

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        return self._records[index]

    @property
    def duration(self) -> float:
        """Time span covered by the trace."""
        if not self._records:
            return 0.0
        return self._records[-1].time - self._records[0].time

    @property
    def total_bytes(self) -> int:
        return sum(r.size for r in self._records)

    def hosts(self) -> set:
        """All addresses appearing as source or destination."""
        out = set()
        for r in self._records:
            out.add(r.five_tuple.saddr)
            out.add(r.five_tuple.daddr)
        return out

    def filter_sender(self, address: IPAddress) -> "Trace":
        """Sub-trace of datagrams sent by ``address``."""
        return Trace(
            (r for r in self._records if r.five_tuple.saddr == address),
            description=f"{self.description} [from {address}]",
        )

    def filter_receiver(self, address: IPAddress) -> "Trace":
        """Sub-trace of datagrams destined to ``address``."""
        return Trace(
            (r for r in self._records if r.five_tuple.daddr == address),
            description=f"{self.description} [to {address}]",
        )

    def merged_with(self, other: "Trace") -> "Trace":
        """Time-ordered union of two traces."""
        merged = Trace(list(self._records) + list(other._records))
        merged.sort()
        merged.description = f"{self.description}+{other.description}"
        return merged
