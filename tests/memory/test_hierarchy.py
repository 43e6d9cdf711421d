"""Tests for the memory hierarchy assemblies."""

from repro.common.config import CheckerConfig, MemoryConfig
from repro.common.time import Clock
from repro.memory.hierarchy import CheckerICaches, MemoryHierarchy


def hierarchy(prefetch=True):
    cfg = MemoryConfig(l2_stride_prefetcher=prefetch)
    return MemoryHierarchy(cfg, Clock.from_mhz(3200.0))


class TestDataPath:
    def test_l1_hit_latency(self):
        h = hierarchy()
        h.access_data(0x1000, False, 0, 0)        # warm
        t = h.access_data(0x1000, False, 0, 1000)
        assert t == 1000 + 2

    def test_miss_goes_to_dram(self):
        h = hierarchy()
        t = h.access_data(0x1000, False, 0, 0)
        # L1 miss + L2 miss + DRAM: far beyond the 12-cycle L2 hit
        assert t > 40

    def test_l2_hit_cheaper_than_dram(self):
        h = hierarchy()
        cold = h.access_data(0x1000, False, 0, 0)
        # evict from tiny L1? Instead access a different line mapping to
        # the same L1 set until eviction, then re-access: it should hit L2
        l1 = h.l1d.config
        way_stride = l1.num_sets * l1.line_bytes
        base_time = cold
        for i in range(1, l1.assoc + 1):
            base_time = max(base_time, h.access_data(
                0x1000 + i * way_stride, False, 0, base_time))
        t = h.access_data(0x1000, False, 0, base_time + 1000)
        assert (t - (base_time + 1000)) <= 20  # L2-hit scale, not DRAM

    def test_stream_prefetch_reduces_latency(self):
        latencies = {}
        for prefetch in (False, True):
            h = hierarchy(prefetch)
            now = 0
            total = 0
            for i in range(64):
                addr = 0x100000 + i * 64
                done = h.access_data(addr, False, 0x40, now)
                total += done - now
                now = done + 4
            latencies[prefetch] = total
        assert latencies[True] < latencies[False]

    def test_writes_allocate(self):
        h = hierarchy()
        h.access_data(0x5000, True, 0, 0)
        hit, _ = h.l1d.lookup(0x5000, 1000)
        assert hit


class TestInstrPath:
    def test_instr_fetch_miss_then_hit(self):
        h = hierarchy()
        cold = h.access_instr(0x400000, 0)
        warm = h.access_instr(0x400000, cold + 10)
        assert warm - (cold + 10) == 2
        assert cold > 2


class TestCheckerICaches:
    def test_private_l0_per_core(self):
        ic = CheckerICaches(CheckerConfig())
        ic.access(0, 0x400000, 0)
        # after the fill completes, core 1 misses its own L0 but hits the
        # shared L1I, so it is faster than a fully cold fetch
        cold_other_line = ic.access(2, 0x7F0000, 100) - 100
        shared_hit = ic.access(1, 0x400000, 100) - 100
        assert shared_hit < cold_other_line

    def test_l0_hit_after_warm(self):
        ic = CheckerICaches(CheckerConfig())
        warm = ic.access(0, 0x400000, 0)
        t = ic.access(0, 0x400000, warm + 5)
        assert t == warm + 5 + 1  # L0 hit latency

    def test_shared_l1_is_shared(self):
        ic = CheckerICaches(CheckerConfig())
        ic.access(0, 0x400000, 0)
        assert ic.shared_l1i.probe(0x400000)
