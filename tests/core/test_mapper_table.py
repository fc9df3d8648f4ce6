"""Every mapper through one match / expire / collide / restart script.

The Figure 7 mapper is one body with a key function per policy, so all
keyed policies must produce the same flow-table counters on the same
script; the per-datagram and rekeying mappers differ in exactly the
columns below.
"""

import pytest

from repro.core import app_mapping, ip_mapping
from repro.core.fam import DatagramAttributes
from repro.core.flows import FlowStateTable, SflAllocator
from repro.core.policy import (
    FiveTuplePolicy,
    HostLevelPolicy,
    PerDatagramPolicy,
    RekeyingPolicy,
)
from repro.netsim.addresses import FiveTuple, IPAddress

THRESHOLD = 100.0
SIZE = 40


def datagram(host: int, tag: bytes) -> DatagramAttributes:
    """A datagram whose match key differs from the other's under every policy."""
    daddr = IPAddress(f"10.0.0.{host}")
    return DatagramAttributes(
        destination_id=daddr.to_bytes(),
        five_tuple=FiveTuple(
            proto=17, saddr=IPAddress("10.0.0.1"), sport=1000, daddr=daddr, dport=53
        ),
        size=SIZE,
        extra={"conversation": tag},
    )


A, B = datagram(2, b"a"), datagram(3, b"b")

#: (time, datagram) over a ONE-slot table, so two keys always collide:
#: start, match, match, expire+restart, collide, collide back, match.
SCRIPT = [(0.0, A), (10.0, A), (50.0, A), (200.0, A), (210.0, B), (220.0, A), (230.0, A)]

KEYED = dict(
    lookups=7, matches=3, new_flows=4, collision_evictions=2, repeated_flows=1,
    sfls=[0, 0, 0, 1, 2, 3, 3], datagrams=2,
)

MAPPERS = [
    ("five-tuple", lambda: FiveTuplePolicy(threshold=THRESHOLD), KEYED),
    ("host-level", lambda: HostLevelPolicy(threshold=THRESHOLD), KEYED),
    ("app-conversation", lambda: app_mapping.ConversationPolicy(threshold=THRESHOLD), KEYED),
    ("ip-conversation", lambda: ip_mapping.ConversationPolicy(threshold=THRESHOLD), KEYED),
    (
        "per-datagram",
        PerDatagramPolicy,
        dict(
            lookups=7, matches=0, new_flows=7, collision_evictions=0, repeated_flows=0,
            sfls=[0, 1, 2, 3, 4, 5, 6], datagrams=1,
        ),
    ),
    (
        # The third datagram exceeds the budget of two: one extra flow.
        "rekeying",
        lambda: RekeyingPolicy(FiveTuplePolicy(threshold=THRESHOLD), after_datagrams=2),
        dict(
            lookups=7, matches=3, new_flows=5, collision_evictions=2, repeated_flows=1,
            sfls=[0, 0, 1, 2, 3, 4, 4], datagrams=2,
        ),
    ),
]


@pytest.mark.parametrize(
    "build,expected", [pytest.param(*m[1:], id=m[0]) for m in MAPPERS]
)
def test_mapper_script(build, expected):
    mapper = build()
    fst = FlowStateTable(1)
    allocator = SflAllocator(seed=0)
    first = allocator.next_value
    sfls = []
    for now, attributes in SCRIPT:
        entry = mapper.classify(attributes, now, fst, allocator)
        assert entry.valid and entry.last == now
        sfls.append(entry.sfl - first)
    counted = getattr(mapper, "inner", mapper)
    assert dict(
        lookups=fst.lookups,
        matches=fst.matches,
        new_flows=fst.new_flows,
        collision_evictions=fst.collision_evictions,
        repeated_flows=getattr(counted, "repeated_flows", 0),
        sfls=sfls,
        datagrams=entry.datagrams,
    ) == expected
    assert entry.octets == entry.datagrams * SIZE
    assert allocator.allocated == fst.new_flows
    assert fst.expirations == 0



@pytest.mark.parametrize(
    "policy",
    [
        FiveTuplePolicy,
        HostLevelPolicy,
        app_mapping.ConversationPolicy,
        ip_mapping.ConversationPolicy,
    ],
)
def test_threshold_must_be_positive_or_none(policy):
    """One mapper, one check: every keyed policy refuses THRESHOLD <= 0
    (at the parent only the five-tuple and ip-conversation policies did)."""
    for bad in (0, -1.0):
        with pytest.raises(ValueError, match="THRESHOLD must be positive"):
            policy(threshold=bad)
    assert policy(threshold=None).threshold is None
