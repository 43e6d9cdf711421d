"""PC-indexed stride prefetcher (Table I: the L2 runs one).

Classic reference-prediction-table design: each entry tracks the last
address and stride observed for a load PC, with a 2-bit confidence counter.
Once confident, the prefetcher issues the next ``degree`` strided lines
into the L2, which converts stream-like DRAM misses (e.g. the *stream*
benchmark) into L2 hits — exactly the effect that makes memory-bound
workloads insensitive to checker frequency in the paper's Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class _StrideEntry:
    last_addr: int
    stride: int
    confidence: int


class StridePrefetcher:
    """Reference prediction table keyed by instruction PC."""

    CONFIDENCE_MAX = 3
    CONFIDENCE_THRESHOLD = 2

    __slots__ = ("entries", "table_size", "degree", "issued")

    def __init__(self, table_size: int = 64, degree: int = 2) -> None:
        self.entries: dict[int, _StrideEntry] = {}
        self.table_size = table_size
        self.degree = degree
        self.issued = 0

    def snapshot(self) -> "StridePrefetcher":
        """Independent copy of the prediction table (fork support).

        Rebuilds each mutable :class:`_StrideEntry`."""
        clone = StridePrefetcher.__new__(StridePrefetcher)
        clone.entries = {
            pc: _StrideEntry(entry.last_addr, entry.stride, entry.confidence)
            for pc, entry in self.entries.items()
        }
        clone.table_size = self.table_size
        clone.degree = self.degree
        clone.issued = self.issued
        return clone

    def observe(self, pc: int, addr: int) -> list[int]:
        """Record a demand access; returns addresses to prefetch."""
        entry = self.entries.get(pc)
        if entry is None:
            if len(self.entries) >= self.table_size:
                self.entries.pop(next(iter(self.entries)))
            self.entries[pc] = _StrideEntry(last_addr=addr, stride=0, confidence=0)
            return []
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, self.CONFIDENCE_MAX)
        else:
            entry.stride = stride
            entry.confidence = 0
        entry.last_addr = addr
        if entry.confidence >= self.CONFIDENCE_THRESHOLD and entry.stride != 0:
            prefetches = [
                addr + entry.stride * k for k in range(1, self.degree + 1)
            ]
            self.issued += len(prefetches)
            return [p for p in prefetches if p >= 0]
        return []
