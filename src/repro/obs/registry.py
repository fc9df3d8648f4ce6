"""The metrics registry: named counters, gauges, and histograms.

First-class named metrics.  Three instrument kinds:

* :class:`Counter` -- monotonically increasing count (``inc``).
* :class:`Gauge` -- point-in-time value (``set``); most FBS gauges are
  refreshed lazily by snapshot *collectors* (cache hit ratios, table
  occupancy) so the datapath never touches them.
* :class:`Histogram` -- fixed-bucket distribution (``observe``); used
  for the MAC latency distribution driven by the netsim cost model.

Instruments are identified by ``(name, labels)``; the registry memoizes
them, so hot paths bind an instrument once (``self._c = reg.counter(
"datagrams_sent")``) and pay one method call per update.  ``snapshot()``
runs the registered collectors, then returns a plain dictionary; keys
render as ``name`` or ``name{k=v,...}``.

:data:`METRIC_CATALOG` is the closed list of metric names the FBS
instrumentation registers.  Two invariants are enforced by tests:
every name a real endpoint registers is in the catalog (no unlisted
telemetry), and docs/OBSERVABILITY.md enumerates the catalog verbatim
(no undocumented telemetry).

A trace speaks the same vocabulary: :meth:`MetricsRegistry.fold` counts
a record onto the counters :data:`EVENT_COUNTERS` names for its type,
so an endpoint's complete trace folds to the endpoint's own counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.events import MISS_KINDS

__all__ = [
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

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, str]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelsKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time named value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Every histogram's buckets, tuned for CPU-cost seconds on the
#: calibrated Pentium-133 model (25 us .. 10 ms; +inf is implicit).
BUCKETS: Tuple[float, ...] = (
    25e-6,
    50e-6,
    100e-6,
    250e-6,
    500e-6,
    1e-3,
    2.5e-3,
    5e-3,
    10e-3,
)


class Histogram:
    """A fixed-bucket distribution of observed values."""

    __slots__ = ("name", "labels", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.bucket_counts = [0] * (len(BUCKETS) + 1)  # last = +inf
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, upper in enumerate(BUCKETS):
            if value <= upper:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        bucket_map = {
            f"le={upper:g}": self.bucket_counts[i]
            for i, upper in enumerate(BUCKETS)
        }
        bucket_map["le=+inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": bucket_map,
        }


class MetricsRegistry:
    """A namespace of instruments plus snapshot-time collectors."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}
        self._collectors: List[Callable[[], None]] = []

    # -- instrument access (memoized) -----------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1])
        return instrument

    # -- collectors -----------------------------------------------------------

    def register_collector(self, collect: Callable[[], None]) -> None:
        """Register a callable run at every ``snapshot()``.

        Collectors refresh gauges (and derived counters) from live
        state -- cache statistics, table occupancy -- so the datapath
        never pays for values only an observer wants.
        """
        self._collectors.append(collect)

    # -- traces ---------------------------------------------------------------

    def fold(self, record: Dict[str, object]) -> None:
        """Count one trace record (``Event.to_dict`` form) onto its
        :data:`EVENT_COUNTERS` row, labelled by the record's fields of the
        same names.  An unknown ``type`` counts nothing (the JSONL schema
        is append-only); an unknown ``CacheMiss.kind`` raises ValueError."""
        etype = record.get("type")
        if etype == "CacheMiss" and record.get("kind") not in MISS_KINDS:
            raise ValueError(f"unknown CacheMiss kind {record.get('kind')!r}")
        for name, amount_field in EVENT_COUNTERS.get(str(etype), ()):
            labels = {label: record.get(label) for label in METRIC_CATALOG[name].labels}
            amount = 1 if amount_field is None else record.get(amount_field)
            if isinstance(amount, int):
                self.counter(name, **labels).inc(amount)

    # -- introspection --------------------------------------------------------

    def names(self) -> List[str]:
        """Distinct registered metric names (labels collapsed)."""
        seen = set()
        for bucket in (self._counters, self._gauges, self._histograms):
            for name, _labels in bucket:
                seen.add(name)
        return sorted(seen)

    def sum_counter(self, name: str) -> int:
        """Sum of a counter across all label combinations."""
        return sum(
            c.value
            for (n, _labels), c in self._counters.items()
            if n == name
        )

    def snapshot(self) -> Dict[str, object]:
        """Run collectors, then serialize every instrument."""
        for collect in self._collectors:
            collect()
        return {
            "counters": {
                _render_key(c.name, c.labels): c.value
                for c in sorted(
                    self._counters.values(), key=lambda c: (c.name, c.labels)
                )
            },
            "gauges": {
                _render_key(g.name, g.labels): g.value
                for g in sorted(
                    self._gauges.values(), key=lambda g: (g.name, g.labels)
                )
            },
            "histograms": {
                _render_key(h.name, h.labels): h.to_dict()
                for h in sorted(
                    self._histograms.values(), key=lambda h: (h.name, h.labels)
                )
            },
        }


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a rendered ``name{k=v,...}`` snapshot key back apart."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: Dict[str, str] = {}
    for part in inner.split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


def merge_snapshots(snapshots: "List[Dict[str, object]]") -> Dict[str, object]:
    """Combine per-process ``snapshot()`` dictionaries into one.

    This is the scale-out load engine's aggregation step: N worker
    processes each own disjoint FBS state (their shard's flows,
    caches, tables), snapshot their private registries, and the
    parent folds the snapshots into a single registry-consistent
    view.  Merge semantics per instrument kind:

    * **counters** sum -- each shard's events are disjoint.
    * **histograms** merge -- ``count``/``sum``/per-bucket counts
      add, ``min``/``max`` combine, ``mean`` is recomputed from the
      merged ``sum``/``count``.
    * **gauges** sum -- shards own disjoint state, so occupancy,
      active flows, and CPU seconds are additive -- except
      ``cache_hit_ratio``, a derived quotient, which is recomputed
      per cache level from the *merged* ``cache_hits`` and
      ``cache_misses`` counters (summing ratios would be
      meaningless).

    The result has the same shape as ``snapshot()`` (sorted keys),
    so ``merge_snapshots([s]) == s`` for any single snapshot up to
    hit-ratio recomputation, and the operation is associative and
    commutative -- tests pin both properties.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():  # type: ignore[union-attr]
            counters[key] = counters.get(key, 0) + value
        for key, value in snap.get("gauges", {}).items():  # type: ignore[union-attr]
            gauges[key] = gauges.get(key, 0.0) + value
        for key, hist in snap.get("histograms", {}).items():  # type: ignore[union-attr]
            merged = histograms.get(key)
            if merged is None:
                merged = histograms[key] = {
                    "count": 0,
                    "sum": 0.0,
                    "mean": 0.0,
                    "min": None,
                    "max": None,
                    "buckets": {},
                }
            merged["count"] += hist["count"]
            merged["sum"] += hist["sum"]
            lo, hi = hist["min"], hist["max"]
            if lo is not None and (merged["min"] is None or lo < merged["min"]):
                merged["min"] = lo
            if hi is not None and (merged["max"] is None or hi > merged["max"]):
                merged["max"] = hi
            buckets = merged["buckets"]
            for bucket, count in hist["buckets"].items():
                buckets[bucket] = buckets.get(bucket, 0) + count
    for hist in histograms.values():
        hist["mean"] = (
            hist["sum"] / hist["count"] if hist["count"] else 0.0
        )
    # Recompute the derived hit-ratio gauges from merged counters.
    for key in list(gauges):
        name, labels = parse_metric_key(key)
        if name != "cache_hit_ratio":
            continue
        cache = labels.get("cache", "")
        hits = counters.get(_render_key(
            "cache_hits", _labels_key({"cache": cache})
        ), 0)
        misses = sum(
            value
            for ckey, value in counters.items()
            if parse_metric_key(ckey)[0] == "cache_misses"
            and parse_metric_key(ckey)[1].get("cache") == cache
        )
        lookups = hits + misses
        gauges[key] = hits / lookups if lookups else 0.0
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


# ---------------------------------------------------------------------------
# The FBS metric catalog.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSpec:
    """One cataloged FBS metric: kind, label names, one-line meaning."""

    kind: str  # "counter" | "gauge" | "histogram"
    labels: Tuple[str, ...]
    help: str


#: Every metric name the FBS instrumentation registers, by name.
#: docs/OBSERVABILITY.md must list 100% of these (test-enforced), and a
#: fully exercised endpoint must register no name outside this table.
METRIC_CATALOG: Dict[str, MetricSpec] = {
    "datagrams_sent": MetricSpec(
        "counter", (), "datagrams protected by FBSSend"
    ),
    "datagrams_received": MetricSpec(
        "counter", (), "datagrams presented to FBSReceive"
    ),
    "datagrams_accepted": MetricSpec(
        "counter", (), "datagrams delivered by FBSReceive (R12)"
    ),
    "datagrams_rejected": MetricSpec(
        "counter",
        ("reason",),
        "datagrams dropped by FBSReceive; reasons are mutually exclusive "
        "(header, stale_timestamp, keying, mac, duplicate)",
    ),
    "bytes_protected": MetricSpec(
        "counter", (), "payload bytes through FBSSend (post-encryption size)"
    ),
    "bytes_accepted": MetricSpec(
        "counter", (), "payload bytes delivered by FBSReceive"
    ),
    "flows_started": MetricSpec(
        "counter", (), "new flows classified by the FAM"
    ),
    "flow_key_derivations": MetricSpec(
        "counter",
        ("side",),
        "K_f derivations (side=send|receive); zero on the warm path",
    ),
    "crypto_state_builds": MetricSpec(
        "counter",
        (),
        "FlowCryptoState constructions; zero on the warm path",
    ),
    "encryptions": MetricSpec(
        "counter", (), "datagram bodies encrypted (secret flows)"
    ),
    "decryptions": MetricSpec(
        "counter", (), "datagram bodies decrypted (secret flows)"
    ),
    "cache_hits": MetricSpec(
        "counter", ("cache",), "cache hits per level (PVC/MKC/TFKC/RFKC)"
    ),
    "cache_misses": MetricSpec(
        "counter",
        ("cache", "kind"),
        "cache misses per level and kind (cold/capacity/collision)",
    ),
    "cache_evictions": MetricSpec(
        "counter", ("cache",), "live entries displaced per cache level"
    ),
    "cache_hit_ratio": MetricSpec(
        "gauge", ("cache",), "hits/lookups per cache level (0 when unused)"
    ),
    "cache_occupancy": MetricSpec(
        "gauge", ("cache",), "live entries per cache level"
    ),
    "flow_table_occupancy": MetricSpec(
        "gauge", (), "valid FST entries (flow state table load)"
    ),
    "active_flows": MetricSpec(
        "gauge",
        (),
        "flows seen within THRESHOLD at snapshot time (Figure 12 metric)",
    ),
    "soft_state_flushes": MetricSpec(
        "counter",
        (),
        "full soft-state flushes (reboot/fault injection); recovery "
        "must follow without any synchronization messages",
    ),
    "replay_guard_fresh_evictions": MetricSpec(
        "counter",
        (),
        "replay-guard entries its capacity dropped while their datagram "
        "was still fresh (a replay of one is delivered again)",
    ),
    "replay_guard_oldest_age_s": MetricSpec(
        "gauge",
        (),
        "seconds since the replay guard's oldest remembered datagram was "
        "accepted (0 when empty): its real memory",
    ),
    "mac_cost_seconds": MetricSpec(
        "histogram",
        (),
        "per-datagram MAC CPU cost under the netsim cost model",
    ),
    "host_cpu_seconds": MetricSpec(
        "gauge", (), "total CPU seconds the owning netsim host has charged"
    ),
    "gateway_tenants_admitted": MetricSpec(
        "counter", (), "peers admitted as gateway tenants (first contact)"
    ),
    "gateway_tenants_evicted": MetricSpec(
        "counter",
        ("reason",),
        "tenants expelled by the gateway (capacity: table full, coldest "
        "tenant reclaimed along with its cache footprint)",
    ),
    "gateway_datagrams_dropped": MetricSpec(
        "counter",
        ("reason",),
        "datagrams the gateway dropped (backpressure: the tenant's "
        "bounded queue was full, before protocol processing; evicted: "
        "queued, then lost with its evicted tenant)",
    ),
    "gateway_active_tenants": MetricSpec(
        "gauge", (), "tenants currently resident in the gateway table"
    ),
    "gateway_queue_depth": MetricSpec(
        "gauge", (), "datagrams queued across all tenant queues at snapshot"
    ),
}

#: Event type name -> the catalog counters one such event bumps, as
#: ``(counter, amount field)``: by 1 when the field is None, else by the
#: record's value of it; labels are the counter's catalog labels, read
#: from the event.  ``ReplayDropped`` counts nothing: the ``duplicate``
#: rejection it accompanies already does.
EVENT_COUNTERS: Dict[str, Tuple[Tuple[str, Optional[str]], ...]] = {
    "FlowStarted": (("flows_started", None),),
    "KeyDerived": (("flow_key_derivations", None),),
    "CryptoStateBuilt": (("crypto_state_builds", None),),
    "CacheHit": (("cache_hits", None),),
    "CacheMiss": (("cache_misses", None),),
    "CacheEvicted": (("cache_evictions", None),),
    "DatagramProtected": (("datagrams_sent", None), ("bytes_protected", "size")),
    "DatagramAccepted": (("datagrams_accepted", None), ("bytes_accepted", "size")),
    "DatagramRejected": (("datagrams_rejected", None),),
    "ReplayDropped": (),
    "SoftStateFlushed": (("soft_state_flushes", None),),
    "TenantAdmitted": (("gateway_tenants_admitted", None),),
    "TenantEvicted": (("gateway_tenants_evicted", None),),
}
