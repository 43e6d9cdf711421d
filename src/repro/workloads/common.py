"""Shared helpers for the workload kernels.

The nine Table II benchmarks are re-expressed as kernels in the repro ISA.
They are chosen/parameterised to sit at the same points as the originals on
the axes the evaluation cares about — memory-boundedness vs. compute-
boundedness, access regularity, FP intensity, branchiness — because those
axes drive every figure in §VI.

Register conventions used by the kernels (documentation, not enforcement):
``x1``–``x9`` addresses and loop bounds, ``x10``–``x20`` scratch,
``f0``–``f15`` FP working set.
"""

from __future__ import annotations

from repro.common.rng import derive
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder


def emit_counted_loop_header(b: ProgramBuilder, counter_reg: int,
                             bound_reg: int, iterations: int,
                             label: str) -> None:
    """Initialise ``counter = 0``, ``bound = iterations`` and open a loop
    label.  Close it with :func:`emit_counted_loop_footer`."""
    b.emit(Opcode.MOVI, rd=counter_reg, imm=0)
    b.emit(Opcode.MOVI, rd=bound_reg, imm=iterations)
    b.label(label)


def emit_counted_loop_footer(b: ProgramBuilder, counter_reg: int,
                             bound_reg: int, label: str) -> None:
    """Increment the counter and branch back while ``counter < bound``."""
    b.emit(Opcode.ADDI, rd=counter_reg, rs1=counter_reg, imm=1)
    b.emit(Opcode.BLT, rs1=counter_reg, rs2=bound_reg, target=label)


def emit_xorshift(b: ProgramBuilder, state_reg: int, tmp_reg: int) -> None:
    """One round of xorshift64 on ``state_reg`` (deterministic PRNG used by
    the irregular-access kernels; mirrors HPCC RandomAccess's LCG role)."""
    b.emit(Opcode.SLLI, rd=tmp_reg, rs1=state_reg, imm=13)
    b.emit(Opcode.XOR, rd=state_reg, rs1=state_reg, rs2=tmp_reg)
    b.emit(Opcode.SRLI, rd=tmp_reg, rs1=state_reg, imm=7)
    b.emit(Opcode.XOR, rd=state_reg, rs1=state_reg, rs2=tmp_reg)
    b.emit(Opcode.SLLI, rd=tmp_reg, rs1=state_reg, imm=17)
    b.emit(Opcode.XOR, rd=state_reg, rs1=state_reg, rs2=tmp_reg)


def float_data(seed_salt: str, count: int, lo: float = 0.1,
               hi: float = 4.0, seed: int | None = None) -> list[float]:
    """Deterministic FP initial data for a kernel's arrays."""
    rng = derive(seed, seed_salt)
    return [lo + (hi - lo) * rng.random() for _ in range(count)]
