"""Structural gate: a datagram outcome is counted in one place.

The metrics registry under ``METRIC_CATALOG`` is the only count; a
trace folds onto it through ``EVENT_COUNTERS``, and the gateway's and
channel's ledgers are reads of it.  Replace, don't fork: no second
aggregate of the trace, no selftest proving two copies agree, no side
ledger beside the registry.
"""

import dataclasses
import re
from pathlib import Path

from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.gateway.admission import AdmissionController
from repro.obs.events import EVENT_TYPES
from repro.obs.registry import EVENT_COUNTERS, METRIC_CATALOG, MetricsRegistry
from repro.transport.channel import SecureChannel

from tests.transport.helpers import two_host_pair

SRC = Path(__file__).resolve().parents[1] / "src"
RETIRED = ("TraceAggregate", "CacheTally", "run_selftest")


def test_no_second_aggregate_or_selftest_in_src():
    found = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in RETIRED
        if re.search(rf"\b{name}\b", path.read_text())
    ]
    assert found == []


def test_every_event_type_has_a_row():
    assert set(EVENT_COUNTERS) == {cls.__name__ for cls in EVENT_TYPES}


def test_every_row_names_a_cataloged_counter_labelled_by_its_event():
    fields = {
        cls.__name__: {f.name for f in dataclasses.fields(cls)} for cls in EVENT_TYPES
    }
    for event, rows in EVENT_COUNTERS.items():
        for counter, amount in rows:
            spec = METRIC_CATALOG[counter]
            assert spec.kind == "counter", counter
            # Label names are the catalog's; the event must carry each.
            assert set(spec.labels) <= fields[event], (event, counter)
            assert amount is None or amount in fields[event], (event, counter)


def test_gateway_and_channel_keep_no_ledger_of_their_own():
    admission = AdmissionController(MetricsRegistry(), queued=lambda: 0)
    net, t_a, t_b = two_host_pair()
    domain = FBSDomain(seed=1)
    channel = SecureChannel(
        domain.make_endpoint(Principal.from_name("a")), t_a, Principal.from_name("b")
    )
    assert not hasattr(admission, "ledger")
    assert not hasattr(channel, "ledger")
