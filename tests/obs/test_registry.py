"""MetricsRegistry: memoization, rendering, collectors, the catalog."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.events import CACHE_LEVELS, MISS_KINDS, REJECTION_REASONS
from repro.obs.registry import DEFAULT_BUCKETS, METRIC_CATALOG, Histogram


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
        reg.counter("cache_misses", cache="TFKC", kind="cold").inc()
        snap = reg.snapshot()
        assert snap["counters"] == {"cache_misses{cache=TFKC,kind=cold}": 1}

    def test_histogram_buckets_and_stats(self):
        h = Histogram("mac_cost_seconds", (), buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 1.5, 99.0):
            h.observe(value)
        d = h.to_dict()
        assert d["count"] == 4
        assert d["min"] == 0.5 and d["max"] == 99.0
        assert d["mean"] == pytest.approx((0.5 + 1.5 + 1.5 + 99.0) / 4)
        assert d["buckets"] == {"le=1": 1, "le=2": 2, "le=+inf": 1}

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", (), buckets=(2.0, 1.0))

    def test_default_buckets_span_cost_model_range(self):
        assert DEFAULT_BUCKETS[0] == 25e-6
        assert DEFAULT_BUCKETS[-1] == 10e-3
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


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


class TestCatalog:
    def test_catalog_is_the_documented_twenty_six(self):
        assert len(METRIC_CATALOG) == 26

    def test_specs_are_well_formed(self):
        for name, spec in METRIC_CATALOG.items():
            assert spec.kind in ("counter", "gauge", "histogram"), name
            assert isinstance(spec.labels, tuple), name
            assert spec.help, name

    def test_label_names_match_the_event_vocabulary(self):
        assert METRIC_CATALOG["datagrams_rejected"].labels == ("reason",)
        assert METRIC_CATALOG["cache_misses"].labels == ("cache", "kind")
        assert METRIC_CATALOG["flow_key_derivations"].labels == ("side",)
        # The vocabulary the labels draw from is the events module's.
        assert set(REJECTION_REASONS) >= {"header", "mac", "duplicate"}
        assert set(CACHE_LEVELS) == {"PVC", "MKC", "TFKC", "RFKC"}
        assert set(MISS_KINDS) == {"cold", "capacity", "collision"}

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
