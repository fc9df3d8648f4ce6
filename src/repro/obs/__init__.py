"""Observability for the FBS reproduction: events, sinks, metrics.

Four pieces (docs/OBSERVABILITY.md is the operator's guide):

* **Events + tracer** (:mod:`repro.obs.events`,
  :mod:`repro.obs.tracer`) -- typed, sim-clock-stamped protocol events
  behind a zero-cost :data:`NULL_TRACER` default.
* **Sinks + aggregation** (:mod:`repro.obs.sinks`,
  :mod:`repro.obs.aggregate`) -- ring buffer, JSONL trace files, and
  streaming aggregation that exactly matches live cache statistics.
* **Metrics registry** (:mod:`repro.obs.registry`) -- named counters,
  gauges, and histograms with snapshot-time collectors;
  :data:`METRIC_CATALOG` is the closed list of FBS metric names.
* **Report writer** (:mod:`repro.obs.report`) -- the one byte-stable
  JSON serialization and ``--out``-or-stdout write every CLI uses.

Import direction: ``repro.core`` imports this package; nothing here
imports ``repro.core`` except the CLI/selftest, lazily.
"""

from repro.obs.aggregate import CacheTally, TraceAggregate
from repro.obs.events import (
    CACHE_LEVELS,
    EVENT_TYPES,
    MISS_KINDS,
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
    read_jsonl,
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
    "MISS_KINDS",
    "event_from_dict",
    # sinks
    "Sink",
    "NullSink",
    "RingBufferSink",
    "JsonlSink",
    "AggregatingSink",
    "read_jsonl",
    # tracer
    "Tracer",
    "NULL_TRACER",
    # aggregation
    "CacheTally",
    "TraceAggregate",
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricSpec",
    "METRIC_CATALOG",
    "merge_snapshots",
    "parse_metric_key",
]
