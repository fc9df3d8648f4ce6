"""The admission controller: outcomes counted once, the ledger a read."""

from repro.gateway.admission import (
    AdmissionController,
    DROP_REASONS,
    EVICTION_REASONS,
)
from repro.obs.registry import MetricsRegistry


class TestCountedOnce:
    def test_every_outcome_is_a_registry_counter_the_ledger_reads(self):
        reg = MetricsRegistry()
        admission = AdmissionController(reg, queued=lambda: 0)
        admission.admitted()
        admission.evicted("capacity")
        admission.dropped("backpressure")
        admission.dropped("evicted", 3)
        reg.counter("datagrams_accepted").inc(2)
        admission.delivered(2)
        assert admission.ledger_dict() == {
            "admitted": 1,
            "evicted": {"capacity": 1},
            "dropped": {"backpressure": 1, "evicted": 3, "unknown_peer": 0},
            "enqueued": 2,
            "delivered": 2,
        }
        assert reg.sum_counter("gateway_tenants_admitted") == 1
        assert reg.sum_counter("gateway_tenants_evicted") == 1
        assert reg.sum_counter("gateway_datagrams_dropped") == 4

    def test_ledger_dict_is_a_copy(self):
        admission = AdmissionController(MetricsRegistry(), queued=lambda: 0)
        ledger = admission.ledger_dict()
        ledger["dropped"]["backpressure"] = 99
        assert admission.ledger_dict()["dropped"]["backpressure"] == 0

    def test_reason_vocabularies_are_closed(self):
        assert DROP_REASONS == ("backpressure", "evicted", "unknown_peer")
        assert EVICTION_REASONS == ("capacity",)


class TestCheckRegistry:
    def test_every_enqueued_body_is_delivered_queued_or_lost_with_its_tenant(self):
        reg = MetricsRegistry()
        queued = [1]
        admission = AdmissionController(reg, queued=lambda: queued[0])
        reg.counter("datagrams_accepted").inc(4)
        admission.delivered(2)
        admission.dropped("evicted")
        assert admission.check_registry() == []
        queued[0] = 0  # a body vanished without a counted outcome
        assert admission.check_registry() == [
            "enqueued 4 != delivered 2 + queued 0 + dropped[evicted] 1"
        ]
