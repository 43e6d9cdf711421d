"""Tests for the DRAM timing model."""

from repro.common.config import DRAMConfig
from repro.common.time import Clock
from repro.memory.dram import DRAMModel


def model():
    return DRAMModel(DRAMConfig(), Clock.from_mhz(3200.0))


class TestRowBuffer:
    def test_first_access_is_row_miss(self):
        d = model()
        d.access(0x10000, 0)
        assert d.row_misses == 1

    def test_same_row_hits(self):
        d = model()
        t1 = d.access(0x10000, 0)
        d.access(0x10040, t1)
        assert d.row_hits == 1

    def test_row_conflict(self):
        d = model()
        cfg = DRAMConfig()
        same_bank_other_row = 0x10000 + cfg.row_bytes * cfg.banks
        t1 = d.access(0x10000, 0)
        d.access(same_bank_other_row, t1)
        assert d.row_conflicts == 1

    def test_latency_ordering(self):
        d = model()
        cfg = DRAMConfig()
        t_miss = d.access(0x10000, 0)
        t_hit = d.access(0x10040, t_miss) - t_miss
        conflict_addr = 0x10000 + cfg.row_bytes * cfg.banks
        base = d.access(0x20000, 10_000_000)  # different bank, fresh
        assert t_hit < t_miss


class TestBankSerialisation:
    def test_same_bank_serialises(self):
        d = model()
        t1 = d.access(0x10000, 0)
        t2 = d.access(0x10040, 0)  # same bank, issued at the same time
        assert t2 > t1

    def test_different_banks_parallel(self):
        d = model()
        cfg = DRAMConfig()
        t1 = d.access(0x10000, 0)
        t2 = d.access(0x10000 + cfg.row_bytes, 0)  # next bank
        assert t2 == t1  # identical latency, no serialisation
