"""Architectural register checkpoints (paper §IV, §IV-E).

The main core takes a checkpoint of the full architectural register file
(and the PC) whenever a load-store log segment closes.  Each checkpoint is
simultaneously the *end* checkpoint validated by one checker core and the
*start* checkpoint another checker core replays from — this sharing is what
makes the strong-induction argument compose across segments.

Checkpoint copy pauses commit for ``checkpoint_latency_cycles`` (Table I:
16 cycles — two-ported register files copying 32 registers each).

Comparisons are **bit-exact**: FP registers compare by IEEE-754 bit
pattern, exactly as checkpoint-compare hardware would.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import NUM_FP_REGS, NUM_INT_REGS
from repro.isa.memory_image import float_to_bits


@dataclass(frozen=True)
class RegisterCheckpoint:
    """A snapshot of architectural state at a segment boundary.

    ``index`` counts checkpoints from 0 (the program-entry checkpoint);
    ``pc`` is the instruction index the next segment starts at.
    """

    index: int
    pc: int
    xregs: tuple[int, ...]
    fregs: tuple[float, ...]

    def mismatches(self, xregs: list[int], fregs: list[float]) -> list[str]:
        """Registers whose values differ from this checkpoint (bit-exact)."""
        diffs = []
        for i in range(NUM_INT_REGS):
            if self.xregs[i] != xregs[i]:
                diffs.append(f"x{i}")
        for i in range(NUM_FP_REGS):
            if float_to_bits(self.fregs[i]) != float_to_bits(fregs[i]):
                diffs.append(f"f{i}")
        return diffs

    def with_bit_flip(self, reg: str, bit: int) -> "RegisterCheckpoint":
        """A corrupted copy of this checkpoint (fault-injection helper).

        ``reg`` is e.g. ``"x5"`` or ``"f3"``; ``bit`` indexes the 64-bit
        representation.
        """
        space, idx = reg[0], int(reg[1:])
        if space == "x":
            xregs = list(self.xregs)
            xregs[idx] ^= 1 << bit
            return RegisterCheckpoint(self.index, self.pc, tuple(xregs), self.fregs)
        from repro.isa.memory_image import bits_to_float
        fregs = list(self.fregs)
        fregs[idx] = bits_to_float(float_to_bits(fregs[idx]) ^ (1 << bit))
        return RegisterCheckpoint(self.index, self.pc, self.xregs, tuple(fregs))


class ArchStateTracker:
    """Reconstructs architectural register state along the commit stream.

    The detection system walks the committed trace in order; applying each
    instruction's writebacks here lets it snapshot the register file at any
    segment boundary without re-executing anything.
    """

    __slots__ = ("xregs", "fregs", "_next_index")

    def __init__(self) -> None:
        self.xregs = [0] * NUM_INT_REGS
        self.fregs = [0.0] * NUM_FP_REGS
        self._next_index = 0

    def clone(self) -> "ArchStateTracker":
        """Independent copy of the tracked register file (fork support).

        Named ``clone`` because :meth:`snapshot` already means "take a
        checkpoint" on this class.
        """
        twin = ArchStateTracker.__new__(ArchStateTracker)
        twin.xregs = self.xregs[:]
        twin.fregs = self.fregs[:]
        twin._next_index = self._next_index
        return twin

    def apply_dsts(self, dsts: tuple) -> None:
        """Apply one committed instruction's register writebacks: one
        entry of a trace's ``dsts`` column."""
        for is_fp, idx, value in dsts:
            if is_fp:
                self.fregs[idx] = value
            else:
                self.xregs[idx] = value

    def apply_rows(self, dsts_column, start: int, stop: int) -> None:
        """Apply the writebacks of rows ``[start, stop)`` of a trace's
        ``dsts`` column."""
        xregs, fregs = self.xregs, self.fregs
        for row in range(start, stop):
            for is_fp, idx, value in dsts_column[row]:
                if is_fp:
                    fregs[idx] = value
                else:
                    xregs[idx] = value

    def snapshot(self, pc: int) -> RegisterCheckpoint:
        """Take the checkpoint for a segment boundary at ``pc``."""
        ckpt = RegisterCheckpoint(
            index=self._next_index,
            pc=pc,
            xregs=tuple(self.xregs),
            fregs=tuple(self.fregs),
        )
        self._next_index += 1
        return ckpt
