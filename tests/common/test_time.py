"""Tests for the tick-based time base."""

import pytest

from repro.common.errors import ConfigError
from repro.common.time import (
    TICKS_PER_NS,
    TICKS_PER_US,
    Clock,
    ns_to_ticks,
    ticks_to_ns,
    ticks_to_us,
)


class TestConversions:
    def test_ticks_per_ns(self):
        assert TICKS_PER_NS == 16

    def test_ticks_per_us(self):
        assert TICKS_PER_US == 16_000

    def test_ns_roundtrip(self):
        assert ticks_to_ns(ns_to_ticks(123.0)) == 123.0

    def test_ns_to_ticks_rounds(self):
        assert ns_to_ticks(1.01) == 16
        assert ns_to_ticks(1.04) == 17

    def test_ticks_to_us(self):
        assert ticks_to_us(16_000) == 1.0

    def test_subnanosecond_resolution(self):
        # 62.5 ps resolution: a main-core cycle is exact
        assert ns_to_ticks(0.3125) == 5


class TestClock:
    @pytest.mark.parametrize("mhz,period", [
        (3200.0, 5), (2000.0, 8), (1000.0, 16),
        (500.0, 32), (250.0, 64), (125.0, 128),
    ])
    def test_paper_frequencies_exact(self, mhz, period):
        assert Clock.from_mhz(mhz).period_ticks == period

    def test_inexact_frequency_rejected(self):
        with pytest.raises(ConfigError):
            Clock.from_mhz(3000.0)  # 16/3 ticks: not an integer

    def test_zero_frequency_rejected(self):
        with pytest.raises(ConfigError):
            Clock.from_mhz(0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ConfigError):
            Clock.from_mhz(-100)

    def test_ticks_to_cycles_ceil(self):
        clock = Clock.from_mhz(1000.0)
        assert clock.ticks_to_cycles_ceil(16) == 1
        assert clock.ticks_to_cycles_ceil(17) == 2
        assert clock.ticks_to_cycles_ceil(0) == 0

    def test_frozen(self):
        clock = Clock.from_mhz(1000.0)
        with pytest.raises(AttributeError):
            clock.freq_mhz = 2000.0
