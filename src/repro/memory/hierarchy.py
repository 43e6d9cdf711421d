"""Memory hierarchy wiring.

Two assemblies are provided:

* :class:`MemoryHierarchy` — the main core's L1I/L1D/L2/DRAM path with the
  L2 stride prefetcher (Table I).  All times are main-core cycles.
* :class:`CheckerICaches` — the checker cores' instruction path: a private
  L0 I-cache per core in front of an L1 I-cache shared by all checkers,
  which misses into the main core's L2 (paper §IV-B, Figure 4).  All times
  are checker-core cycles.  Checker cores have **no data cache**: their data
  comes from the load-store log with deterministic latency.
"""

from __future__ import annotations

from repro.common.config import CheckerConfig, MemoryConfig
from repro.common.time import Clock
from repro.memory.cache import CacheModel
from repro.memory.dram import DRAMModel
from repro.memory.prefetcher import StridePrefetcher


class MemoryHierarchy:
    """Main-core memory system timing (L1s, L2, DRAM, prefetcher)."""

    __slots__ = ("config", "l1i", "l1d", "l2", "dram", "prefetcher")

    def __init__(self, config: MemoryConfig, clock: Clock) -> None:
        config.validate()
        self.config = config
        self.l1i = CacheModel(config.l1i)
        self.l1d = CacheModel(config.l1d)
        self.l2 = CacheModel(config.l2)
        self.dram = DRAMModel(config.dram, clock)
        self.prefetcher = StridePrefetcher() if config.l2_stride_prefetcher else None

    def snapshot(self) -> "MemoryHierarchy":
        """Independent copy of every timing structure (fork support)."""
        clone = MemoryHierarchy.__new__(MemoryHierarchy)
        clone.config = self.config
        clone.l1i = self.l1i.snapshot()
        clone.l1d = self.l1d.snapshot()
        clone.l2 = self.l2.snapshot()
        clone.dram = self.dram.snapshot()
        clone.prefetcher = (
            self.prefetcher.snapshot() if self.prefetcher is not None else None)
        return clone

    def _l2_access(self, addr: int, now: int, pc: int | None) -> int:
        """Access the L2 at ``now``; returns data-ready cycle."""
        hit, when = self.l2.lookup(addr, now)
        if hit:
            ready = when
        else:
            start = when
            dram_done = self.l2.config.hit_latency_cycles + self.dram.access(
                addr, start + self.l2.config.hit_latency_cycles)
            self.l2.fill(addr, start, dram_done)
            ready = dram_done
        if self.prefetcher is not None and pc is not None:
            for pf_addr in self.prefetcher.observe(pc, addr):
                if not self.l2.probe(pf_addr):
                    pf_done = self.dram.access(pf_addr, now)
                    self.l2.install(pf_addr, pf_done)
        return ready

    def access_data(self, addr: int, is_write: bool, pc: int, now: int) -> int:
        """A load/store data access issued at ``now``; returns ready cycle.

        Stores are modelled write-allocate/write-back; the returned time for
        a store is when the line is owned (the OoO model retires stores from
        the SQ at that point).
        """
        hit, when = self.l1d.lookup(addr, now)
        if hit:
            return when
        miss_start = when
        fill_done = self._l2_access(addr, miss_start, pc)
        self.l1d.fill(addr, miss_start, fill_done)
        return max(now + self.l1d.config.hit_latency_cycles, fill_done)

    def access_instr(self, addr: int, now: int) -> int:
        """An instruction fetch issued at ``now``; returns ready cycle."""
        hit, when = self.l1i.lookup(addr, now)
        if hit:
            return when
        miss_start = when
        fill_done = self._l2_access(addr, miss_start, None)
        self.l1i.fill(addr, miss_start, fill_done)
        return max(now + self.l1i.config.hit_latency_cycles, fill_done)


class CheckerICaches:
    """Instruction-fetch timing for the set of checker cores.

    One private L0 per core, one shared L1I, and a fixed latency for
    fetches that fall through to the main core's L2 (the common case for a
    fall-through is still a hit there, because the main core executed the
    same code shortly before — paper §IV-B).
    """

    __slots__ = ("config", "l0", "shared_l1i", "_l2_latency")

    def __init__(self, config: CheckerConfig) -> None:
        self.config = config
        self.l0 = [CacheModel(config.l0i) for _ in range(config.num_cores)]
        self.shared_l1i = CacheModel(config.shared_l1i)
        self._l2_latency = config.l2_fetch_latency_cycles

    def snapshot(self) -> "CheckerICaches":
        """Independent copy of the per-core L0s and the shared L1I."""
        clone = CheckerICaches.__new__(CheckerICaches)
        clone.config = self.config
        clone.l0 = [cache.snapshot() for cache in self.l0]
        clone.shared_l1i = self.shared_l1i.snapshot()
        clone._l2_latency = self._l2_latency
        return clone

    def access(self, core_id: int, addr: int, now: int) -> int:
        """Fetch ``addr`` on checker ``core_id`` at checker-cycle ``now``."""
        l0 = self.l0[core_id]
        hit, when = l0.lookup(addr, now)
        if hit:
            return when
        miss_start = when
        l1_hit, l1_when = self.shared_l1i.lookup(addr, miss_start)
        if l1_hit:
            fill_done = l1_when
        else:
            fill_done = l1_when + self._l2_latency
            self.shared_l1i.fill(addr, l1_when, fill_done)
        l0.fill(addr, miss_start, fill_done)
        return max(now + l0.config.hit_latency_cycles, fill_done)
