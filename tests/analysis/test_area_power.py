"""Tests for the §VI-B/C area and power models."""

import pytest

from repro.analysis.area import added_sram_kib, area_model
from repro.analysis.power import (
    energy_overhead_per_run,
    power_model,
)
from repro.common.config import default_config


class TestArea:
    def test_paper_headline_numbers(self):
        a = area_model(default_config())
        assert a.overhead_vs_core == pytest.approx(0.244, abs=0.02)
        assert a.overhead_vs_core_with_l2 == pytest.approx(0.164, abs=0.02)

    def test_twelve_rocket_cores(self):
        a = area_model(default_config())
        assert a.checker_cores_mm2 == pytest.approx(0.42, abs=0.01)

    def test_sram_near_80kib(self):
        kib = added_sram_kib(default_config())
        assert 75 <= kib <= 90

    def test_sram_scales_with_log(self):
        cfg = default_config()
        big = added_sram_kib(cfg.with_log(360 * 1024, 5000))
        small = added_sram_kib(cfg)
        assert big - small == pytest.approx(324, abs=1)  # +324 KiB of log

    def test_fewer_cores_less_area(self):
        cfg = default_config()
        a12 = area_model(cfg)
        a3 = area_model(cfg.with_checker_cores(3))
        assert a3.detection_added_mm2 < a12.detection_added_mm2


class TestPower:
    def test_paper_headline_number(self):
        p = power_model(default_config())
        assert p.overhead == pytest.approx(0.159, abs=0.01)

    def test_scales_with_frequency(self):
        cfg = default_config()
        full = power_model(cfg)
        half = power_model(cfg.with_checker_freq(500.0))
        assert half.overhead == pytest.approx(full.overhead / 2, rel=0.01)

    def test_scales_with_cores(self):
        cfg = default_config()
        full = power_model(cfg)
        quarter = power_model(cfg.with_checker_cores(3))
        assert quarter.overhead == pytest.approx(full.overhead / 4, rel=0.01)

    def test_energy_combines_power_and_time(self):
        # 16% extra power, no slowdown -> 16% extra energy
        assert energy_overhead_per_run(1.0, 0.16) == pytest.approx(0.16)
        # slowdown compounds
        assert energy_overhead_per_run(1.10, 0.16) > 0.16
