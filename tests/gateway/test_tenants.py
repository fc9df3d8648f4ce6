"""Tenant table semantics: LRU by activity, bounded, report-stable."""

import pytest

from repro.core.keying import Principal
from repro.gateway.tenants import GatewayConfig, TenantState, TenantTable


def make_tenant(i):
    name = f"tenant-{i:02d}"
    return TenantState(
        name=name, principal=Principal.from_name(name), addr=("10.88.0.10", 5000 + i)
    )


class TestTenantTable:
    def test_lookup_by_address(self):
        table = TenantTable()
        tenant = make_tenant(0)
        table.admit(tenant)
        assert table.get(tenant.addr) is tenant
        assert table.get(("10.88.0.99", 1)) is None
        assert tenant.addr in table and len(table) == 1

    def test_coldest_is_least_recently_touched(self):
        table = TenantTable()
        a, b, c = make_tenant(0), make_tenant(1), make_tenant(2)
        for t in (a, b, c):
            table.admit(t)
        assert table.coldest() is a
        table.get(a.addr)  # a lookup alone moves nothing
        assert table.coldest() is a
        table.touch(a.addr)  # a verified datagram: a becomes warmest
        assert table.coldest() is b

    def test_remove_returns_the_tenant(self):
        table = TenantTable()
        tenant = make_tenant(0)
        table.admit(tenant)
        assert table.remove(tenant.addr) is tenant
        assert len(table) == 0

    def test_total_queued_sums_all_queues(self):
        table = TenantTable()
        a, b = make_tenant(0), make_tenant(1)
        a.queue.extend([b"x", b"y"])
        b.queue.append(b"z")
        table.admit(a)
        table.admit(b)
        assert table.total_queued() == 3

    def test_by_name_is_sorted_regardless_of_admission_order(self):
        table = TenantTable()
        for i in (2, 0, 1):
            table.admit(make_tenant(i))
        assert [t.name for t in table.by_name()] == [
            "tenant-00",
            "tenant-01",
            "tenant-02",
        ]


class TestTenantState:
    def test_summary_has_no_addresses(self):
        tenant = make_tenant(0)
        tenant.queue.append(b"body")
        tenant.enqueued = 3
        summary = tenant.summary()
        assert summary == {
            "delivered": 0,
            "dropped": 0,
            "enqueued": 3,
            "flows": 0,
            "queued": 1,
        }


class TestGatewayConfig:
    def test_defaults(self):
        config = GatewayConfig()
        assert config.max_tenants == 8
        assert config.queue_depth == 64

    @pytest.mark.parametrize("bad", [{"max_tenants": 0}, {"queue_depth": -1}])
    def test_refuses_a_table_or_queue_that_cannot_serve(self, bad):
        # max_tenants=0 ended in StopIteration out of TenantTable.coldest().
        with pytest.raises(ValueError):
            GatewayConfig(**bad)
