"""Timestamp codec and freshness window tests."""

import pytest

from repro.core.timestamps import (
    SIGCOMM97_EPOCH_OFFSET,
    FreshnessWindow,
    TimestampCodec,
)


#: Minute zero of the simulation on the 1996 clock.
T0 = SIGCOMM97_EPOCH_OFFSET // 60


class TestCodec:
    def test_minute_resolution(self):
        codec = TimestampCodec()
        assert codec.encode(0.0) == T0
        assert codec.encode(59.9) == T0
        assert codec.encode(60.0) == T0 + 1
        assert codec.encode(3600.0) == T0 + 60

    def test_epoch_offset(self):
        codec = TimestampCodec()
        # Simulation t=0 sits at the paper's presentation era: well past
        # minute zero of 1996.
        assert codec.encode(0.0) == SIGCOMM97_EPOCH_OFFSET // 60

    def test_decode_inverts_to_minute_start(self):
        codec = TimestampCodec()
        assert codec.decode(codec.encode(125.0)) == 120.0

    def test_no_wrap_for_8000_years(self):
        codec = TimestampCodec()
        eight_thousand_years = 8000 * 365.25 * 86400
        assert codec.encode(eight_thousand_years - SIGCOMM97_EPOCH_OFFSET) < 2**32

    def test_out_of_range_rejected(self):
        codec = TimestampCodec()
        with pytest.raises(ValueError):
            codec.encode(-SIGCOMM97_EPOCH_OFFSET - 3600.0)


class TestFreshness:
    def _window(self, half=120.0):
        codec = TimestampCodec()
        return FreshnessWindow(codec=codec, half_window=half), codec

    def test_current_minute_is_fresh(self):
        window, codec = self._window()
        now = 1000.0
        assert window.is_fresh(codec.encode(now), now)

    def test_within_window_fresh(self):
        window, codec = self._window(half=120.0)
        stamp = codec.encode(1000.0)
        assert window.is_fresh(stamp, 1000.0 + 100.0)
        assert window.is_fresh(stamp, 1000.0 - 50.0)

    def test_past_window_stale(self):
        window, codec = self._window(half=120.0)
        stamp = codec.encode(600.0)
        # Stamp covers minute [600, 660); stale once now > 660 + 120.
        assert not window.is_fresh(stamp, 790.0)

    def test_future_stamp_rejected(self):
        window, codec = self._window(half=120.0)
        stamp = codec.encode(10_000.0)
        assert not window.is_fresh(stamp, 1000.0)

    def test_window_centered_both_sides(self):
        # The window is centered on the current time: tolerant of skew in
        # either direction.
        window, codec = self._window(half=120.0)
        now = 5000.0
        assert window.is_fresh(codec.encode(now - 110.0), now)
        assert window.is_fresh(codec.encode(now + 110.0), now)

    def test_minute_granularity_errs_to_acceptance(self):
        window, codec = self._window(half=60.0)
        # A datagram stamped at second 0 of its minute, checked 119 s
        # later: the minute interval extends freshness to its end.
        stamp = codec.encode(600.0)
        assert window.is_fresh(stamp, 600.0 + 60.0 + 59.0)
        assert not window.is_fresh(stamp, 600.0 + 60.0 + 61.0)

    def test_zero_window_still_accepts_current_minute(self):
        window, codec = self._window(half=0.0)
        assert window.is_fresh(codec.encode(90.0), 95.0)
