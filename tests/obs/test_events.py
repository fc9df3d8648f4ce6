"""Event vocabulary: schema round-trips and the closed constant lists."""

import dataclasses

import pytest

from repro.obs import (
    CACHE_LEVELS,
    EVENT_TYPES,
    REJECTION_REASONS,
    CacheMiss,
    DatagramProtected,
    DatagramRejected,
    FlowStarted,
    event_from_dict,
)

SAMPLES = [
    FlowStarted(sfl=7),
    CacheMiss(cache="TFKC"),
    DatagramProtected(sfl=7, size=128, secret=True),
    DatagramRejected(reason="mac", sfl=7),
    DatagramRejected(reason="header"),  # sfl defaults to -1 (unparsed)
]


_SAMPLE_VALUES = {"int": 5, "str": "x", "bool": True, "float": 1.5}


def test_every_event_type_round_trips():
    for cls in EVENT_TYPES:
        fields = {}
        for f in dataclasses.fields(cls):
            if f.name == "t":
                continue
            type_name = f.type if isinstance(f.type, str) else f.type.__name__
            fields[f.name] = _SAMPLE_VALUES[type_name]
        event = cls(**fields)
        record = event.to_dict()
        assert record["type"] == cls.__name__
        assert record["t"] == 0.0
        rebuilt = event_from_dict(record)
        assert rebuilt == event


@pytest.mark.parametrize("event", SAMPLES, ids=lambda e: type(e).__name__)
def test_to_dict_contains_all_fields(event):
    record = event.to_dict()
    for f in dataclasses.fields(event):
        assert record[f.name] == getattr(event, f.name)
    assert event_from_dict(record) == event


def test_unparsed_rejection_defaults_to_unknown_sfl():
    assert DatagramRejected(reason="header").sfl == -1


def test_unknown_type_raises():
    with pytest.raises(ValueError, match="unknown event type"):
        event_from_dict({"type": "NotAnEvent", "t": 0.0})


def test_malformed_record_raises_value_error():
    with pytest.raises(ValueError, match="malformed"):
        event_from_dict({"type": "CacheMiss", "bogus_field": 1})


def test_constant_lists_are_closed_and_consistent():
    assert REJECTION_REASONS == (
        "header",
        "stale_timestamp",
        "keying",
        "mac",
        "duplicate",
    )
    assert CACHE_LEVELS == ("PVC", "MKC", "TFKC", "RFKC")
    names = [cls.__name__ for cls in EVENT_TYPES]
    assert len(names) == len(set(names)) == 13


def test_t_is_last_field_everywhere():
    # The tracer mutates ``t`` post-construction; keeping it last (with
    # a default) lets call sites pass payload fields positionally.
    for cls in EVENT_TYPES:
        assert dataclasses.fields(cls)[-1].name == "t"
