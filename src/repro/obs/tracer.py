"""The Tracer: clock-stamping front door between code and a sink.

Instrumented modules hold a tracer, not a sink, so every event is
stamped with the *simulation* clock of the component that emitted it::

    tr = self.tracer
    if tr.enabled:
        tr.emit(CacheHit(cache="TFKC"))

The ``if tr.enabled`` guard is the whole performance story: with the
default :data:`NULL_TRACER` the event object is never constructed and
the warm datapath pays one attribute read per potential event.  Do not
call ``emit`` unconditionally from hot paths.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.events import Event
from repro.obs.sinks import NullSink, Sink

__all__ = ["Tracer", "NULL_TRACER"]


class Tracer:
    """Stamps events with a clock and forwards them to a sink.

    Parameters
    ----------
    sink:
        Where events go.  ``tracer.enabled`` mirrors ``sink.enabled``.
    now:
        Simulation-clock callable used to stamp ``event.t``.  Defaults
        to a constant 0.0 (events still ordered by emission in any
        ordered sink).  Never pass a wall clock -- traces must be
        deterministic (``tests/test_report_determinism.py`` summarizes
        one with every wall clock 10**6 s ahead on one side).
    """

    __slots__ = ("sink", "enabled", "_now")

    def __init__(
        self, sink: Sink, now: Optional[Callable[[], float]] = None
    ) -> None:
        self.sink = sink
        self.enabled = sink.enabled
        self._now = now or (lambda: 0.0)

    def emit(self, event: Event) -> None:
        """Stamp ``event.t`` and deliver it to the sink."""
        event.t = self._now()
        self.sink.emit(event)


#: The process-wide disabled tracer: shared, stateless, free.
NULL_TRACER = Tracer(NullSink())
