"""Sparse 64-bit-word data memory.

The architectural memory is a dictionary of aligned 8-byte words.  The
paper assumes caches and DRAM are ECC-protected (§IV-A), so the *contents*
of memory are always taken to be correct; faults are injected at the core
boundary (register writebacks, load/store values/addresses), never here.

Floating-point values are stored as their IEEE-754 bit patterns so that a
store followed by a load round-trips exactly — replay determinism depends
on it.
"""

from __future__ import annotations

import struct

from repro.common.errors import MemoryAccessError

WORD_BYTES = 8


def float_to_bits(value: float) -> int:
    """IEEE-754 double bit pattern of ``value`` as an unsigned 64-bit int."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_float(bits: int) -> float:
    """Double-precision value of bit pattern ``bits``."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class MemoryImage:
    """Byte-addressed, 8-byte-aligned sparse word memory."""

    __slots__ = ("_words",)

    def __init__(self, initial: dict[int, int] | None = None) -> None:
        self._words: dict[int, int] = {}
        if initial:
            for addr, value in initial.items():
                self.store(addr, value)

    @staticmethod
    def _check(addr: int) -> None:
        if addr < 0:
            raise MemoryAccessError(f"negative address {addr:#x}")
        if addr % WORD_BYTES:
            raise MemoryAccessError(f"unaligned access at {addr:#x}")

    def load(self, addr: int) -> int:
        """Read the 64-bit word at ``addr`` (zero if never written)."""
        self._check(addr)
        return self._words.get(addr, 0)

    def store(self, addr: int, value: int) -> None:
        """Write the 64-bit word at ``addr``."""
        self._check(addr)
        self._words[addr] = value & ((1 << 64) - 1)

    def copy(self) -> "MemoryImage":
        clone = MemoryImage()
        clone._words = dict(self._words)
        return clone

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, addr: int) -> bool:
        self._check(addr)
        return addr in self._words

    def items(self):
        """Iterate over (address, word) pairs, unordered."""
        return self._words.items()
