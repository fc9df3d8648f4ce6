"""MetricsRegistry: memoization, rendering, collectors, the catalog,
and folding a trace onto the catalog's counters."""

import asyncio
import json
import random

import pytest

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.gateway.tenants import GatewayConfig
from repro.obs import AggregatingSink, MetricsRegistry, parse_metric_key
from repro.obs.events import CACHE_LEVELS, REJECTION_REASONS
from repro.obs import registry as registry_module
from repro.obs.registry import BUCKETS, EVENT_COUNTERS, METRIC_CATALOG, Histogram

from tests.gateway.helpers import gateway_site, send_protected

#: The counters a trace can reproduce: every name EVENT_COUNTERS bumps.
EVENT_DERIVED = {name for rows in EVENT_COUNTERS.values() for name, _ in rows}


def event_counters(snapshot):
    """A snapshot's nonzero event-derived counters (a live registry also
    holds zero-valued series its collectors create; a fold does not)."""
    return {
        key: value
        for key, value in snapshot["counters"].items()
        if value and parse_metric_key(key)[0] in EVENT_DERIVED
    }


class TestInstruments:
    def test_counter_memoized_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("datagrams_rejected", reason="mac")
        b = reg.counter("datagrams_rejected", reason="mac")
        c = reg.counter("datagrams_rejected", reason="header")
        assert a is b and a is not c
        a.inc()
        a.inc(2)
        assert b.value == 3 and c.value == 0

    def test_sum_counter_across_labels(self):
        reg = MetricsRegistry()
        reg.counter("cache_hits", cache="TFKC").inc(4)
        reg.counter("cache_hits", cache="RFKC").inc(6)
        assert reg.sum_counter("cache_hits") == 10
        assert reg.sum_counter("nonexistent") == 0

    def test_gauge_set(self):
        reg = MetricsRegistry()
        reg.gauge("active_flows").set(17)
        assert reg.snapshot()["gauges"]["active_flows"] == 17

    def test_labeled_keys_render_prometheus_style(self):
        reg = MetricsRegistry()
        reg.counter("flow_key_derivations", side="send", cache="TFKC").inc()
        snap = reg.snapshot()
        assert snap["counters"] == {"flow_key_derivations{cache=TFKC,side=send}": 1}

    def test_histogram_buckets_and_stats(self, monkeypatch):
        monkeypatch.setattr(registry_module, "BUCKETS", (1.0, 2.0))
        h = Histogram("mac_cost_seconds", ())
        for value in (0.5, 1.5, 1.5, 99.0):
            h.observe(value)
        d = h.to_dict()
        assert d["count"] == 4
        assert d["min"] == 0.5 and d["max"] == 99.0
        assert d["mean"] == pytest.approx((0.5 + 1.5 + 1.5 + 99.0) / 4)
        assert d["buckets"] == {"le=1": 1, "le=2": 2, "le=+inf": 1}

    def test_buckets_span_cost_model_range(self):
        assert BUCKETS[0] == 25e-6
        assert BUCKETS[-1] == 10e-3
        assert list(BUCKETS) == sorted(BUCKETS)


class TestCollectorsAndSnapshot:
    def test_collectors_run_only_at_snapshot(self):
        reg = MetricsRegistry()
        runs = []
        reg.register_collector(lambda: runs.append(1))
        assert runs == []
        reg.snapshot()
        reg.snapshot()
        assert len(runs) == 2

    def test_collector_refreshes_gauges_lazily(self):
        reg = MetricsRegistry()
        state = {"occupancy": 0}
        gauge = reg.gauge("cache_occupancy", cache="TFKC")
        reg.register_collector(lambda: gauge.set(state["occupancy"]))
        state["occupancy"] = 5
        assert reg.snapshot()["gauges"]["cache_occupancy{cache=TFKC}"] == 5

    def test_names_collapses_labels(self):
        reg = MetricsRegistry()
        reg.counter("cache_hits", cache="TFKC")
        reg.counter("cache_hits", cache="RFKC")
        reg.gauge("active_flows")
        reg.histogram("mac_cost_seconds")
        assert reg.names() == ["active_flows", "cache_hits", "mac_cost_seconds"]

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("datagrams_sent").inc(3)
        reg.histogram("mac_cost_seconds").observe(1e-4)
        parsed = json.loads(json.dumps(reg.snapshot()))
        assert parsed["counters"]["datagrams_sent"] == 3
        assert parsed["histograms"]["mac_cost_seconds"]["count"] == 1

    def test_endpoint_snapshot_round_trips_with_its_gauges(self):
        domain = FBSDomain(seed=4)
        alice = domain.make_endpoint(Principal.from_name("alice"))
        bob = domain.make_endpoint(Principal.from_name("bob"))
        bob.unprotect(alice.protect(b"body", bob.principal), alice.principal)
        snapshot = bob.registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert {
            f"cache_hit_ratio{{cache={level}}}" for level in CACHE_LEVELS
        } <= set(snapshot["gauges"])


class TestCatalog:
    def test_catalog_is_the_documented_twenty_eight(self):
        assert len(METRIC_CATALOG) == 28

    def test_specs_are_well_formed(self):
        for name, spec in METRIC_CATALOG.items():
            assert spec.kind in ("counter", "gauge", "histogram"), name
            assert isinstance(spec.labels, tuple), name
            assert spec.help, name

    def test_label_names_match_the_event_vocabulary(self):
        assert METRIC_CATALOG["datagrams_rejected"].labels == ("reason",)
        assert METRIC_CATALOG["cache_misses"].labels == ("cache",)
        assert METRIC_CATALOG["flow_key_derivations"].labels == ("side",)
        # The vocabulary the labels draw from is the events module's.
        assert set(REJECTION_REASONS) >= {"header", "mac", "duplicate"}
        assert set(CACHE_LEVELS) == {"PVC", "MKC", "TFKC", "RFKC"}

    def test_endpoint_registers_only_cataloged_names(self):
        from repro.core.deploy import FBSDomain
        from repro.core.keying import Principal

        domain = FBSDomain(seed=3)
        alice = domain.make_endpoint(
            Principal.from_name("alice"), registry=MetricsRegistry()
        )
        bob = domain.make_endpoint(
            Principal.from_name("bob"), registry=MetricsRegistry()
        )
        wire = alice.protect(b"body", bob.principal, secret=True)
        bob.unprotect(wire, alice.principal, secret=True)
        alice.registry.snapshot()  # collectors register cache series
        bob.registry.snapshot()
        for endpoint in (alice, bob):
            assert set(endpoint.registry.names()) <= set(METRIC_CATALOG)


class TestFold:
    def test_each_event_type_counts_onto_its_catalog_row(self):
        reg = MetricsRegistry()
        reg.fold({"type": "CacheMiss", "cache": "MKC", "t": 0})
        reg.fold({"type": "DatagramProtected", "sfl": 1, "size": 40, "secret": True})
        reg.fold({"type": "DatagramProtected", "sfl": 1, "size": 24, "secret": False})
        reg.fold({"type": "DatagramRejected", "reason": "mac", "sfl": 1})
        reg.fold({"type": "ReplayDropped", "sfl": 1})
        reg.fold({"type": "TenantEvicted", "peer": "t", "reason": "capacity"})
        assert reg.snapshot()["counters"] == {
            "bytes_protected": 64,
            "cache_misses{cache=MKC}": 1,
            "datagrams_rejected{reason=mac}": 1,
            "datagrams_sent": 2,
            "gateway_tenants_evicted{reason=capacity}": 1,
        }

    def test_unknown_type_counts_nothing(self):
        # The JSONL schema is append-only: a newer writer's events fold
        # to nothing rather than failing the summary.
        reg = MetricsRegistry()
        reg.fold({"type": "SomethingNewer", "cache": "PVC", "t": 0})
        assert reg.snapshot()["counters"] == {}

    def test_a_miss_kind_from_an_older_trace_is_ignored(self):
        # Traces written while live caches still split their misses
        # carry a ``kind``: it folds onto the one count per cache.
        reg = MetricsRegistry()
        reg.fold({"type": "CacheMiss", "cache": "PVC", "kind": "cold", "t": 0})
        assert reg.snapshot()["counters"] == {"cache_misses{cache=PVC}": 1}

    def test_a_traced_pair_folds_to_its_live_counters(self):
        # Tiny caches, a replay guard, flushes, tampering, replays, stale
        # datagrams and batches: every event-derived counter of every
        # endpoint, folded from that endpoint's own trace, equals the
        # live registry's, series by series.
        config = FBSConfig().with_(
            tfkc_size=4, rfkc_size=4, mkc_size=2, pvc_size=2, replay_guard_size=64
        )
        domain = FBSDomain(config=config, seed=23)
        clock = [0.0]
        sinks = [AggregatingSink() for _ in range(5)]
        endpoints = [
            domain.make_endpoint(
                Principal.from_name(f"p{i}"), now=lambda: clock[0], tracer=sink
            )
            for i, sink in enumerate(sinks)
        ]
        rng = random.Random(5)
        accepted = []
        for step in range(300):
            clock[0] += 0.5
            sender, receiver = rng.sample(endpoints, 2)
            secret = rng.random() < 0.5
            if step % 40 == 39:
                rng.choice(endpoints).flush_all_caches()
            if step == 150:
                clock[0] += 400.0  # everything accepted so far is now stale
            n = 8 if step % 25 == 0 else 1
            wires = sender.protect_batch(
                [b"body %d/%d" % (step, i) for i in range(n)], receiver.principal,
                secret=secret,
            )
            roll = rng.random()
            if roll < 0.1:  # tampered: mac
                wires = [w[:-1] + bytes([w[-1] ^ 1]) for w in wires]
            elif roll < 0.15 and accepted:  # replayed: duplicate or stale
                sender, receiver, secret, wires = rng.choice(accepted)
            elif roll < 0.18:  # garbage: header
                wires = [b"\x00" * 5]
            result = receiver.unprotect_batch(wires, sender.principal, secret)
            if all(reason is None for reason in result.reasons):
                accepted.append((sender, receiver, secret, wires))
        folded = set()
        for endpoint, sink in zip(endpoints, sinks):
            live = event_counters(endpoint.registry.snapshot())
            assert event_counters(sink.registry.snapshot()) == live
            folded |= set(live)
        names = {parse_metric_key(key)[0] for key in folded}
        assert names == EVENT_DERIVED - {
            "gateway_tenants_admitted", "gateway_tenants_evicted",
        }
        for level in CACHE_LEVELS:
            assert f"cache_hits{{cache={level}}}" in folded
            assert f"cache_misses{{cache={level}}}" in folded
        for reason in set(REJECTION_REASONS) - {"keying"}:
            assert f"datagrams_rejected{{reason={reason}}}" in folded, reason

    def test_a_traced_gateway_folds_to_its_live_counters(self):
        sink = AggregatingSink()
        site = gateway_site(
            tenants=4, gw_config=GatewayConfig(max_tenants=2), tracer=sink
        )
        for round_index in range(3):
            for tenant in range(4):
                send_protected(site, tenant, b"r%d" % round_index)
                assert asyncio.run(site.gateway.serve_once(5.0)) == "enqueued"
        live = event_counters(site.gateway.endpoint.registry.snapshot())
        assert event_counters(sink.registry.snapshot()) == live
        assert live["gateway_tenants_admitted"] == 12
        assert live["gateway_tenants_evicted{reason=capacity}"] == 10
