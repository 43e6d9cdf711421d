"""DDR3 DRAM timing model.

Models the latency components that matter at the granularity of an L2 miss:
per-bank open-row state (row-buffer hit / miss / conflict latencies from
Table I's DDR3-1600 11-11-11-28 part) and per-bank serialisation.  The
model works in main-core cycles; the hierarchy converts from the nanosecond
figures in :class:`repro.common.config.DRAMConfig` once at construction.
"""

from __future__ import annotations

from repro.common.config import DRAMConfig
from repro.common.time import Clock, ns_to_ticks


class DRAMModel:
    """Open-row, per-bank DRAM latency model."""

    __slots__ = (
        "config", "_row_hit", "_row_miss", "_row_conflict",
        "_open_rows", "_bank_free", "_bank_shift", "_row_shift",
        "row_hits", "row_misses", "row_conflicts",
    )

    def __init__(self, config: DRAMConfig, clock: Clock) -> None:
        config.validate()
        self.config = config

        def to_cycles(ns: float) -> int:
            return max(1, clock.ticks_to_cycles_ceil(ns_to_ticks(ns)))

        self._row_hit = to_cycles(config.row_hit_ns)
        self._row_miss = to_cycles(config.row_miss_ns)
        self._row_conflict = to_cycles(config.row_conflict_ns)
        self._open_rows: list[int | None] = [None] * config.banks
        self._bank_free = [0] * config.banks
        self._row_shift = config.row_bytes.bit_length() - 1
        self._bank_shift = self._row_shift
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0

    def snapshot(self) -> "DRAMModel":
        """Independent copy of the per-bank state; shares the config and
        the precomputed latency scalars."""
        clone = DRAMModel.__new__(DRAMModel)
        clone.config = self.config
        clone._row_hit = self._row_hit
        clone._row_miss = self._row_miss
        clone._row_conflict = self._row_conflict
        clone._open_rows = self._open_rows[:]
        clone._bank_free = self._bank_free[:]
        clone._row_shift = self._row_shift
        clone._bank_shift = self._bank_shift
        clone.row_hits = self.row_hits
        clone.row_misses = self.row_misses
        clone.row_conflicts = self.row_conflicts
        return clone

    def access(self, addr: int, now: int) -> int:
        """Issue an access at cycle ``now``; returns data-ready cycle."""
        row = addr >> self._row_shift
        bank = row % self.config.banks
        open_row = self._open_rows[bank]
        if open_row == row:
            latency = self._row_hit
            self.row_hits += 1
        elif open_row is None:
            latency = self._row_miss
            self.row_misses += 1
        else:
            latency = self._row_conflict
            self.row_conflicts += 1
        start = max(now, self._bank_free[bank])
        done = start + latency
        self._bank_free[bank] = done
        self._open_rows[bank] = row
        return done
