"""Tests for the Table I configuration dataclasses."""

import hashlib
import pickle
from dataclasses import asdict, replace

import pytest

from repro.common.config import (
    CacheConfig,
    DetectionConfig,
    DRAMConfig,
    LOG_ENTRY_BYTES,
    MainCoreConfig,
    config_from_dict,
    default_config,
    table1_rows,
)
from repro.common.errors import ConfigError
from repro.common.records import canonical_json
from repro.core.timing import config_key


class TestDefaults:
    def test_default_validates(self):
        cfg = default_config()
        assert cfg.main_core.freq_mhz == 3200.0
        assert cfg.checker.num_cores == 12
        assert cfg.checker.freq_mhz == 1000.0

    def test_table1_log_geometry(self):
        cfg = default_config()
        # 36 KiB split 12 ways at 16 B/entry = 192 entries/segment
        assert cfg.detection.segment_entries(12) == 192
        assert cfg.detection.segment_bytes(12) == 3 * 1024

    def test_table1_timeout(self):
        assert default_config().detection.instruction_timeout == 5000

    def test_rob_and_queues(self):
        mc = default_config().main_core
        assert (mc.rob_entries, mc.iq_entries, mc.lq_entries,
                mc.sq_entries) == (40, 32, 16, 16)

    def test_caches(self):
        mem = default_config().memory
        assert mem.l1d.size_bytes == 32 * 1024
        assert mem.l1d.assoc == 2
        assert mem.l2.size_bytes == 1024 * 1024
        assert mem.l2.assoc == 16
        assert mem.l2.hit_latency_cycles == 12

    def test_config_hashable_and_equal(self):
        assert default_config() == default_config()
        assert hash(default_config()) == hash(default_config())


class TestDerivedConfigs:
    def test_with_checker_freq(self):
        cfg = default_config().with_checker_freq(500.0)
        assert cfg.checker.freq_mhz == 500.0
        assert cfg.main_core.freq_mhz == 3200.0

    def test_with_checker_cores(self):
        cfg = default_config().with_checker_cores(6)
        assert cfg.checker.num_cores == 6
        # total log unchanged: segments grow
        assert cfg.detection.segment_entries(6) == 384

    def test_with_log(self):
        cfg = default_config().with_log(360 * 1024, None)
        assert cfg.detection.log_bytes == 360 * 1024
        assert cfg.detection.instruction_timeout is None

    def test_with_ideal_checkers(self):
        assert default_config().with_ideal_checkers().detection.ideal_checkers

    def test_derived_equal_configs_share_hash(self):
        a = default_config().with_checker_freq(500.0)
        b = default_config().with_checker_freq(500.0)
        assert a == b and hash(a) == hash(b)


class TestValidation:
    def test_cache_size_must_divide(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, assoc=2).validate()

    def test_cache_sets_power_of_two(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=3 * 64 * 2, assoc=2).validate()

    def test_dram_latency_ordering(self):
        with pytest.raises(ConfigError):
            DRAMConfig(row_hit_ns=50.0, row_miss_ns=27.5).validate()

    def test_zero_checker_cores_rejected(self):
        with pytest.raises(ConfigError):
            default_config().with_checker_cores(0).validate()

    def test_log_too_small_for_entries(self):
        det = DetectionConfig(log_bytes=64)
        with pytest.raises(ConfigError):
            det.segment_entries(12)

    def test_negative_timeout_rejected(self):
        cfg = default_config().with_log(36 * 1024, 0)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_main_core_width_check(self):
        from dataclasses import replace
        with pytest.raises(ConfigError):
            replace(MainCoreConfig(), fetch_width=0).validate()

    def test_log_entry_size(self):
        assert LOG_ENTRY_BYTES == 16  # 64-bit addr + 64-bit value


class TestTable1Rendering:
    def test_rows_cover_table(self):
        rows = dict(table1_rows())
        assert "Main core" in rows
        assert "3-wide" in rows["Main core"]
        assert "Checker cores" in rows
        assert "12x in-order" in rows["Checker cores"]
        assert "36KiB" in rows["Log size"]
        assert "5000 instruction timeout" in rows["Log size"]


def fresh_fingerprint(cfg) -> str:
    """The fingerprint computed from scratch, bypassing every memo."""
    return hashlib.sha256(canonical_json(asdict(cfg)).encode()).hexdigest()


class TestFingerprintMemo:
    """Description and fingerprint are memoised per config object."""

    def test_memos_match_a_fresh_computation(self):
        cfg = default_config().with_checker_cores(6)
        assert cfg.description == asdict(cfg)
        assert cfg.description is cfg.description
        assert cfg.fingerprint == config_key(cfg) == fresh_fingerprint(cfg)

    def test_derived_configs_fingerprint_afresh(self):
        base = default_config()
        warm = default_config().with_checker_freq(1000)
        config_key(base), config_key(warm)  # fill both memos first
        derived = [
            replace(base, checker=replace(base.checker, freq_mhz=500.0)),
            replace(warm, checker=replace(warm.checker, num_cores=6)),
            base.with_log(360 * 1024, None),
            config_from_dict(asdict(base)),
            config_from_dict(asdict(warm)),
            pickle.loads(pickle.dumps(base)),
            pickle.loads(pickle.dumps(warm)),
            pickle.loads(pickle.dumps(default_config().with_checker_cores(6))),
        ]
        for cfg in derived:
            assert config_key(cfg) == fresh_fingerprint(cfg)
        # the int frequency survives both round trips
        assert config_key(derived[4]) == config_key(warm)
        assert config_key(derived[6]) == config_key(warm)
