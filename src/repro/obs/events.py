"""Typed, sim-clock-timestamped protocol events (the tracing vocabulary).

Every observable step of the FBS datapath has a small dataclass here:
flow classification (:class:`FlowStarted`), keying
(:class:`KeyDerived`, :class:`CryptoStateBuilt`), every cache level of
Figure 5 (:class:`CacheHit` / :class:`CacheMiss` / :class:`CacheEvicted`
with ``cache`` naming PVC/MKC/TFKC/RFKC), the datagram outcomes
(:class:`DatagramProtected` / :class:`DatagramAccepted` /
:class:`DatagramRejected`), and the replay guard
(:class:`ReplayDropped`).

Design rules:

* The ``t`` field is **simulation time**, stamped by the
  :class:`~repro.obs.tracer.Tracer` at emit time from the clock it was
  constructed with -- never the wall clock (the report-determinism
  differential's clock shim would show it in a trace summary).
* Events carry *identifiers* (sfl, cache name, reason), never key
  material -- nothing here may ever hold a flow or master key (a key is
  a :class:`~repro.crypto.secret.Secret`, which renders ``<secret>``).
* Rejection reasons are **mutually exclusive**: a failed ``unprotect``
  emits exactly one :class:`DatagramRejected` whose ``reason`` is drawn
  from :data:`REJECTION_REASONS`; every rejection counter anywhere in
  the system is derived from this single event.

The JSONL wire form of an event is ``{"type": <class name>, "t": ...,
<fields>}``; :func:`event_from_dict` inverts :meth:`Event.to_dict`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Tuple, Type

__all__ = [
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
    "TenantAdmitted",
    "TenantEvicted",
    "EVENT_TYPES",
    "REJECTION_REASONS",
    "CACHE_LEVELS",
    "event_from_dict",
]

#: The mutually exclusive ``DatagramRejected.reason`` values, in receive
#: pipeline order (header parse, freshness, keying, integrity, replay).
REJECTION_REASONS: Tuple[str, ...] = (
    "header",
    "stale_timestamp",
    "keying",
    "mac",
    "duplicate",
)

#: The four cache levels of Figure 5 (trace names may carry a suffix,
#: e.g. ``TFKC[32]`` in a cache-size sweep; the level is the prefix).
CACHE_LEVELS: Tuple[str, ...] = ("PVC", "MKC", "TFKC", "RFKC")

class Event:
    """Base class for all trace events.

    Subclasses are dataclasses whose last field is ``t`` (simulation
    seconds, defaulting to 0.0 until a tracer stamps it).
    """

    __slots__ = ()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form: ``{"type": ..., <fields>}``."""
        record: Dict[str, object] = {"type": type(self).__name__}
        record.update(asdict(self))
        return record


@dataclass
class FlowStarted(Event):
    """The FAM classified a datagram into a brand-new flow (Figure 1)."""

    sfl: int
    t: float = 0.0


@dataclass
class KeyDerived(Event):
    """A flow key K_f was derived (a TFKC/RFKC miss paid Section 5.2)."""

    side: str  # "send" | "receive"
    sfl: int
    t: float = 0.0


@dataclass
class CryptoStateBuilt(Event):
    """A :class:`~repro.core.keying.FlowCryptoState` was constructed
    (per-flow MAC prefix/pads; the work a warm cache amortizes away)."""

    t: float = 0.0


@dataclass
class CacheHit(Event):
    """A lookup in ``cache`` (PVC/MKC/TFKC/RFKC) hit."""

    cache: str
    t: float = 0.0


@dataclass
class CacheMiss(Event):
    """A lookup in ``cache`` (PVC/MKC/TFKC/RFKC) missed."""

    cache: str
    t: float = 0.0


@dataclass
class CacheEvicted(Event):
    """Installing into ``cache`` displaced a live entry (soft state)."""

    cache: str
    t: float = 0.0


@dataclass
class DatagramProtected(Event):
    """FBSSend emitted a protected datagram (Figure 4, S10)."""

    sfl: int
    size: int
    secret: bool
    t: float = 0.0


@dataclass
class DatagramAccepted(Event):
    """FBSReceive delivered a datagram (Figure 4, R12)."""

    sfl: int
    size: int
    t: float = 0.0


@dataclass
class DatagramRejected(Event):
    """FBSReceive dropped a datagram; ``reason`` is one of
    :data:`REJECTION_REASONS`.  ``sfl`` is -1 when the header could not
    be parsed (the sfl is unknown before R2 completes)."""

    reason: str
    sfl: int = -1
    t: float = 0.0


@dataclass
class ReplayDropped(Event):
    """The soft-state replay guard refused an exact duplicate."""

    sfl: int
    t: float = 0.0


@dataclass
class SoftStateFlushed(Event):
    """An endpoint dropped cached soft state (reboot/flush injection).

    ``scope`` names what was flushed (currently always ``endpoint``:
    all four cache levels, the FST, and the replay guard).  Resilience
    campaigns locate these marks in a trace to measure recovery --
    time/datagrams from the flush to the next :class:`DatagramAccepted`
    with zero synchronization messages in between.
    """

    scope: str
    t: float = 0.0


@dataclass
class TenantAdmitted(Event):
    """The gateway admitted a previously unknown peer as a tenant.

    ``peer`` is the tenant's stable display name (never an address or
    key material); admission follows the zero-message keying work of
    the peer's first datagram, once that datagram is accepted.
    """

    peer: str
    t: float = 0.0


@dataclass
class TenantEvicted(Event):
    """The gateway expelled a tenant to admit another under pressure.

    The eviction also reclaims the tenant's footprint across all four
    key caches, so it is normally followed by :class:`CacheEvicted`
    marks.  ``reason`` is currently always ``capacity`` (the tenant
    table was full and this peer was the coldest).
    """

    peer: str
    reason: str
    t: float = 0.0


#: Every concrete event class, in datapath order.  The operator's guide
#: (docs/OBSERVABILITY.md) must enumerate exactly these names; a test
#: diffs the two.
EVENT_TYPES: Tuple[Type[Event], ...] = (
    FlowStarted,
    KeyDerived,
    CryptoStateBuilt,
    CacheHit,
    CacheMiss,
    CacheEvicted,
    DatagramProtected,
    DatagramAccepted,
    DatagramRejected,
    ReplayDropped,
    SoftStateFlushed,
    TenantAdmitted,
    TenantEvicted,
)

_BY_NAME: Dict[str, Type[Event]] = {cls.__name__: cls for cls in EVENT_TYPES}


def event_from_dict(record: Dict[str, object]) -> Event:
    """Rebuild an event from its :meth:`Event.to_dict` form.

    Raises :class:`ValueError` on an unknown ``type`` -- a trace file
    from a newer writer should fail loudly, not half-parse.
    """
    fields = dict(record)
    type_name = fields.pop("type", None)
    cls = _BY_NAME.get(type_name if isinstance(type_name, str) else "")
    if cls is None:
        raise ValueError(f"unknown event type {type_name!r}")
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ValueError(f"malformed {type_name} record: {exc}") from exc
