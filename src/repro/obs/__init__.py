"""Observability for the FBS reproduction: events, sinks, metrics.

Four pieces (docs/OBSERVABILITY.md is the operator's guide):

* **Events + tracer** (:mod:`repro.obs.events`,
  :mod:`repro.obs.tracer`) -- typed, sim-clock-stamped protocol events
  behind a zero-cost :data:`NULL_TRACER` default.
* **Sinks** (:mod:`repro.obs.sinks`) -- ring buffer, JSONL trace
  files, and a constant-memory sink that folds events onto a registry.
* **Metrics registry** (:mod:`repro.obs.registry`) -- named counters,
  gauges, and histograms with snapshot-time collectors;
  :data:`METRIC_CATALOG` is the closed list of FBS metric names, and
  :data:`EVENT_COUNTERS` maps each event type onto its counters, so a
  trace folds to the same numbers the live registry holds.
* **CLI harness** (:mod:`repro.obs.report`) -- argument parsing, the
  numeric argument type, and the one byte-stable JSON serialization
  and ``--out``-or-stdout write every CLI uses.

Import direction: ``repro.core`` imports this package; nothing here
reaches above it except ``check-docs``, lazily.
"""

from repro.obs.events import (
    CACHE_LEVELS,
    EVENT_TYPES,
    REJECTION_REASONS,
    CacheEvicted,
    CacheHit,
    CacheMiss,
    CryptoStateBuilt,
    DatagramAccepted,
    DatagramProtected,
    DatagramRejected,
    Event,
    FlowStarted,
    KeyDerived,
    ReplayDropped,
    SoftStateFlushed,
    event_from_dict,
)
from repro.obs.registry import (
    EVENT_COUNTERS,
    METRIC_CATALOG,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricSpec,
    merge_snapshots,
    parse_metric_key,
)
from repro.obs.sinks import (
    AggregatingSink,
    JsonlSink,
    NullSink,
    RingBufferSink,
    Sink,
    read_records,
)
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    # events
    "Event",
    "FlowStarted",
    "KeyDerived",
    "CryptoStateBuilt",
    "CacheHit",
    "CacheMiss",
    "CacheEvicted",
    "DatagramProtected",
    "DatagramAccepted",
    "DatagramRejected",
    "ReplayDropped",
    "SoftStateFlushed",
    "EVENT_TYPES",
    "REJECTION_REASONS",
    "CACHE_LEVELS",
    "event_from_dict",
    # sinks
    "Sink",
    "NullSink",
    "RingBufferSink",
    "JsonlSink",
    "AggregatingSink",
    "read_records",
    # tracer
    "Tracer",
    "NULL_TRACER",
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricSpec",
    "METRIC_CATALOG",
    "EVENT_COUNTERS",
    "merge_snapshots",
    "parse_metric_key",
]
