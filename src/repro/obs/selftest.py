"""End-to-end observability selftest (``python -m repro.obs --selftest``).

Runs a real FBS endpoint pair (lazy ``repro.core`` import -- the obs
core modules themselves never depend on the protocol) with every sink
attached at once, then checks the cross-layer contracts:

1. Trace events fold to the same per-cache hit/miss counts as the live
   :class:`~repro.core.caches.CacheStats` objects.
2. The metrics registry's counters match the trace aggregate.
3. A JSONL round trip (write, re-read, re-aggregate) reproduces the
   live aggregate exactly.
4. Rejection reasons are mutually exclusive and sum to
   ``datagrams_rejected``.

No ``assert`` statements (fbslint FBS004): failures accumulate in a
list and the caller turns a non-empty list into a nonzero exit.
"""

from __future__ import annotations

import io
import json
from typing import List

__all__ = ["run_selftest"]


def _expect(failures: List[str], condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def run_selftest() -> List[str]:
    """Run the selftest; return a list of failures (empty = pass)."""
    from repro.core.config import FBSConfig
    from repro.core.deploy import FBSDomain
    from repro.core.errors import ReceiveError
    from repro.core.keying import Principal
    from repro.obs.aggregate import TraceAggregate
    from repro.obs.registry import METRIC_CATALOG, MetricsRegistry
    from repro.obs.sinks import AggregatingSink, JsonlSink, RingBufferSink
    from repro.obs.tracer import Tracer

    failures: List[str] = []

    clock = [0.0]
    config = FBSConfig().with_(tfkc_size=8, rfkc_size=8, replay_guard_size=64)
    domain = FBSDomain(config=config, seed=11)

    ring = RingBufferSink(capacity=65536)
    live = AggregatingSink()
    jsonl_buffer = io.StringIO()
    jsonl = JsonlSink(jsonl_buffer)

    class _Tee:
        enabled = True

        def emit(self, event):
            ring.emit(event)
            live.emit(event)
            jsonl.emit(event)

        def close(self):
            jsonl.close()

    # One shared tracer (the trace interleaves both ends), but one
    # registry per endpoint -- two endpoints on one registry would
    # fight over the collector-backed cache metrics.
    tracer = Tracer(_Tee(), now=lambda: clock[0])
    p_alice = Principal.from_name("alice")
    p_bob = Principal.from_name("bob")
    alice = domain.make_endpoint(
        p_alice, now=lambda: clock[0], tracer=tracer,
        registry=MetricsRegistry(),
    )
    bob = domain.make_endpoint(
        p_bob, now=lambda: clock[0], tracer=tracer,
        registry=MetricsRegistry(),
    )

    # Traffic: several flows (distinct destination principals per flow
    # would be overkill; HostLevelPolicy keys on the peer, so the warm
    # repeats exercise the caches), plus one of each rejection class.
    accepted = 0
    for seq in range(12):
        clock[0] += 0.25
        secret = seq % 2 == 0
        wire = alice.protect(
            b"payload-%d" % seq, destination=p_bob, secret=secret
        )
        bob.unprotect(wire, source=p_alice, secret=secret)
        accepted += 1

    def _expect_reject(wire_bytes: bytes, label: str) -> None:
        clock[0] += 0.25
        try:
            bob.unprotect(wire_bytes, source=p_alice)
        except ReceiveError:
            return
        failures.append(f"{label}: datagram unexpectedly accepted")

    # mac: flip a payload bit.
    good = alice.protect(b"tamper-me", destination=p_bob)
    _expect_reject(good[:-1] + bytes([good[-1] ^ 0x01]), "mac")
    # duplicate: replay an accepted datagram.
    fresh = alice.protect(b"replay-me", destination=p_bob)
    clock[0] += 0.25
    bob.unprotect(fresh, source=p_alice)
    accepted += 1
    _expect_reject(fresh, "duplicate")
    # header: garbage too short to parse.
    _expect_reject(b"\x00" * 4, "header")

    tracer.sink.close()

    # 1. Trace-vs-live cache parity.  Both endpoints emit into one
    # trace, so compare against the summed live stats per level.
    agg = live.aggregate
    stats_pairs = [
        ("TFKC", (alice.tfkc.stats, bob.tfkc.stats)),
        ("RFKC", (alice.rfkc.stats, bob.rfkc.stats)),
        ("MKC", (alice.mkd.mkc.stats, bob.mkd.mkc.stats)),
        ("PVC", (alice.mkd.pvc.stats, bob.mkd.pvc.stats)),
    ]
    for name, stats_list in stats_pairs:
        live_hits = sum(s.hits for s in stats_list)
        live_misses = sum(s.misses for s in stats_list)
        tally = agg.caches.get(name)
        if tally is None:
            if live_hits or live_misses:
                failures.append(f"{name}: live lookups but no trace events")
            continue
        _expect(
            failures,
            tally.hits == live_hits,
            f"{name}: trace hits {tally.hits} != live hits {live_hits}",
        )
        _expect(
            failures,
            tally.misses == live_misses,
            f"{name}: trace misses {tally.misses} != live {live_misses}",
        )

    # 2. Registry vs trace (bob receives everything).
    registry = bob.registry
    _expect(
        failures,
        registry.counter("datagrams_accepted").value == accepted,
        "registry datagrams_accepted != scenario count",
    )
    _expect(
        failures,
        agg.datagrams_accepted == accepted,
        "trace DatagramAccepted count != scenario count",
    )
    rejected_total = registry.sum_counter("datagrams_rejected")
    _expect(
        failures,
        rejected_total
        == registry.counter("datagrams_received").value - accepted,
        "sum of rejection reasons != received - accepted",
    )
    _expect(
        failures,
        sum(agg.rejections.values()) == rejected_total,
        "trace rejection events != registry rejection counters",
    )
    for reason, count in agg.rejections.items():
        want = registry.counter("datagrams_rejected", reason=reason).value
        _expect(
            failures,
            count == want,
            f"rejection reason {reason}: trace {count} != registry {want}",
        )
    for reason in ("mac", "duplicate", "header"):
        _expect(
            failures,
            agg.rejections.get(reason, 0) >= 1,
            f"rejection reason {reason} never observed",
        )
    _expect(
        failures,
        agg.replay_drops == agg.rejections.get("duplicate", 0),
        "ReplayDropped events != duplicate rejections",
    )

    # Registered names must stay inside the catalog.
    unlisted = [n for n in registry.names() if n not in METRIC_CATALOG]
    _expect(
        failures,
        not unlisted,
        f"metrics outside METRIC_CATALOG: {unlisted}",
    )

    # JSONL round trip reproduces the live aggregate.
    replay = TraceAggregate()
    for line in jsonl_buffer.getvalue().splitlines():
        replay.add(json.loads(line))
    _expect(
        failures,
        replay.summary() == agg.summary(),
        "JSONL round trip does not reproduce the live aggregate",
    )
    _expect(
        failures,
        len(ring) == agg.records,
        "ring buffer count != aggregate record count",
    )

    # Snapshot must be JSON-serializable and carry the gauges.
    snap = registry.snapshot()
    gauges = snap["gauges"]
    if not isinstance(gauges, dict) or not any(
        key.startswith("cache_hit_ratio") for key in gauges
    ):
        failures.append("snapshot is missing cache_hit_ratio gauges")

    return failures
