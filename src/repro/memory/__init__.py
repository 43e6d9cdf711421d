"""Memory-system substrate: caches, DRAM, prefetcher, hierarchy."""

from repro.memory.cache import CacheModel
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import CheckerICaches, MemoryHierarchy
from repro.memory.prefetcher import StridePrefetcher

__all__ = [
    "CacheModel",
    "CheckerICaches",
    "DRAMModel",
    "MemoryHierarchy",
    "StridePrefetcher",
]
