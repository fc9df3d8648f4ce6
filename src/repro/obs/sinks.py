"""Event sinks: where emitted trace events go.

Four implementations, one per operating mode:

* :class:`NullSink` -- the default.  ``enabled`` is False, so
  instrumented code skips event *construction* entirely; the warm
  datapath pays one attribute test per potential event and nothing else
  (the "zero-cost when off" contract, asserted by
  ``tests/core/test_flow_crypto.py``).
* :class:`RingBufferSink` -- the last N events in memory; what tests
  and interactive debugging use.
* :class:`JsonlSink` -- one JSON object per line, the trace-file schema
  ``python -m repro.obs summarize`` consumes (see
  docs/OBSERVABILITY.md for the schema).
* :class:`AggregatingSink` -- no storage, just running counts: each
  event folded onto a :class:`~repro.obs.registry.MetricsRegistry`, so
  constant memory at any trace length.

Sinks receive fully built :class:`~repro.obs.events.Event` objects from
a :class:`~repro.obs.tracer.Tracer`; they never see key material
(events cannot carry it) and never read any clock (the tracer stamps
``t`` before ``emit``).
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Deque, Dict, Iterator, List, Union

from repro.obs.events import Event
from repro.obs.registry import MetricsRegistry

__all__ = [
    "Sink", "NullSink", "RingBufferSink", "JsonlSink", "AggregatingSink",
    "read_records",
]


class Sink:
    """Base class: an event consumer.

    ``enabled`` is a *class-level* fast-path flag: emitters must check
    it (via ``tracer.enabled``) before constructing an event, so a
    disabled sink costs one attribute read per call site.
    """

    enabled: bool = True

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (default: nothing to release)."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class NullSink(Sink):
    """Discards everything; ``enabled`` is False so nothing is built."""

    enabled = False

    def emit(self, event: Event) -> None:  # pragma: no cover - never called
        pass


class RingBufferSink(Sink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._events: Deque[Event] = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        """The buffered events, oldest first."""
        return list(self._events)

    def of_type(self, cls: type) -> List[Event]:
        """The buffered events of one type, oldest first."""
        return [e for e in self._events if isinstance(e, cls)]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink(Sink):
    """Writes one JSON object per event to a file (the trace format).

    Accepts a path (opened and owned: ``close()`` closes it) or an open
    text file object (borrowed: ``close()`` only flushes it).
    """

    def __init__(self, destination: Union[str, "IO[str]"]) -> None:
        if hasattr(destination, "write"):
            self._fp: IO[str] = destination  # type: ignore[assignment]
            self._owns = False
        else:
            self._fp = open(destination, "w", encoding="utf-8")
            self._owns = True
        self.events_written = 0

    def emit(self, event: Event) -> None:
        self._fp.write(json.dumps(event.to_dict(), sort_keys=True))
        self._fp.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owns:
            self._fp.close()
        else:
            self._fp.flush()


class AggregatingSink(Sink):
    """Folds events onto its own :class:`MetricsRegistry` as they arrive."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    def emit(self, event: Event) -> None:
        self.registry.fold(event.to_dict())


def read_records(path: str) -> Iterator[Dict[str, object]]:
    """The event records of a JSONL trace file, in order (blank lines
    skipped); a line that is not one raises :class:`ValueError` naming
    ``path:line``."""
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError(f"{path}:{lineno}: not an event record")
            yield record
