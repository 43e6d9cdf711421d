"""Static per-instruction metadata for the timing models.

The timing simulators need, for every static instruction, its source and
destination registers (to build the dependence graph), its functional-unit
class and whether it touches memory.  This is static information, so it is
computed once per :class:`~repro.isa.program.Program` and cached.

The cached table also lowers every instruction, once, to the flat tuples
the two timing loops unpack per row (see :class:`ProgramMeta`), so the
loops do no Enum-keyed lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.isa.assembler import field_space
from repro.isa.instructions import (
    BRANCH_OPS,
    FuClass,
    Instruction,
    LOAD_OPS,
    NONDET_OPS,
    NUM_INT_REGS,
    Opcode,
    STORE_OPS,
    fu_class,
    pc_to_byte_address,
    uop_count,
)
from repro.isa.program import Program, signature


@dataclass(frozen=True)
class InstrMeta:
    """Timing-relevant static facts about one instruction."""

    op: Opcode
    #: tuple of (is_fp, index) source registers (x0 excluded: always ready)
    srcs: tuple[tuple[bool, int], ...]
    #: tuple of (is_fp, index) destination registers (x0 excluded)
    dsts: tuple[tuple[bool, int], ...]
    fu: FuClass
    uops: int
    is_load: bool
    is_store: bool
    is_branch: bool
    is_jump: bool


def instr_meta(instr: Instruction) -> InstrMeta:
    """Compute the static metadata for one instruction."""
    sig = signature(instr.op)
    srcs: list[tuple[bool, int]] = []
    dsts: list[tuple[bool, int]] = []
    mapping = {"a": instr.rs1, "b": instr.rs2, "c": instr.rs3}
    for letter in sig:
        if letter in mapping and mapping[letter] is not None:
            is_fp = field_space(instr.op, letter) == "f"
            idx = mapping[letter]
            if is_fp or idx != 0:
                srcs.append((is_fp, idx))
    for letter, reg in (("d", instr.rd), ("D", instr.rd2)):
        if letter in sig and reg is not None:
            is_fp = field_space(instr.op, letter) == "f"
            if is_fp or reg != 0:
                dsts.append((is_fp, reg))
    op = instr.op
    return InstrMeta(
        op=op,
        srcs=tuple(srcs),
        dsts=tuple(dsts),
        fu=fu_class(op),
        uops=uop_count(op),
        is_load=op in LOAD_OPS,
        is_store=op in STORE_OPS,
        is_branch=op in BRANCH_OPS,
        is_jump=op in (Opcode.J, Opcode.JAL, Opcode.JALR),
    )


#: Functional-unit pools of the OoO core, in pool-index order.
FU_POOLS = (FuClass.INT_ALU, FuClass.FP_ALU, FuClass.MULDIV, FuClass.MEM,
            FuClass.BRANCH)

#: Log-2 of the I-cache line size both timing models fetch by.
FETCH_LINE_SHIFT = 6

#: ``ProgramMeta.ooo`` row kinds of memory access.
MEM_NONE, MEM_LOAD, MEM_STORE = 0, 1, 2


def _regs(regs: tuple[tuple[bool, int], ...]) -> tuple[int, ...]:
    return tuple(idx + NUM_INT_REGS if is_fp else idx for is_fp, idx in regs)


def _lower(pc: int, meta: InstrMeta) -> tuple[tuple, tuple]:
    """The (OoO row, in-order row) tuples of one static instruction."""
    # deferred: repro.core imports this module
    from repro.core.latencies import NON_PIPELINED, execute_latency

    op = meta.op
    fetch_addr = pc_to_byte_address(pc)
    line = fetch_addr >> FETCH_LINE_SHIFT
    srcs, dsts = _regs(meta.srcs), _regs(meta.dsts)
    latency = execute_latency(op)
    non_pipelined = op in NON_PIPELINED
    control = meta.is_branch or meta.is_jump
    if meta.fu in FU_POOLS:
        fu = FU_POOLS.index(meta.fu)
        occupancy = latency if non_pipelined else 1
        latency_ooo = latency
    else:  # HALT/NOP take no unit and complete in one cycle
        fu, occupancy, latency_ooo = -1, 0, 1
    mem = (MEM_LOAD if meta.is_load
           else MEM_STORE if meta.is_store else MEM_NONE)
    ctrl = ((meta.is_branch, meta.is_jump, op is Opcode.JALR,
             op is Opcode.JAL) if control else None)
    ooo = (fetch_addr, line, meta.uops, mem, srcs, fu, occupancy,
           latency_ooo, ctrl, dsts)
    inorder = (fetch_addr, line, srcs, dsts, mem != MEM_NONE, meta.uops,
               latency, non_pipelined, op in NONDET_OPS, control)
    return ooo, inorder


class ProgramMeta:
    """Per-program cache of :class:`InstrMeta`, indexed by PC, plus each
    instruction lowered for the two timing loops.  Registers are one
    index space (``x0..x31`` are 0..31, ``f0..f31`` are 32..63).

    * ``ooo[pc]`` (``OoOCore.run_rows``): fetch byte address, fetch line,
      µops, memory kind (``MEM_*``), source registers, index into
      :data:`FU_POOLS` (-1: none), pool occupancy, execute latency,
      ``(is_branch, is_jump, is_jalr, is_jal)`` or None, destinations;
    * ``inorder[pc]`` (``InOrderCoreModel.run_segment``): fetch byte
      address, fetch line, sources, destinations, and whether it
      accesses memory, µops, execute latency, and whether it is
      non-pipelined, non-deterministic, control flow.
    """

    __slots__ = ("metas", "ooo", "inorder")

    def __init__(self, program: Program) -> None:
        self.metas = tuple(instr_meta(i) for i in program.instructions)
        lowered = [_lower(pc, meta) for pc, meta in enumerate(self.metas)]
        self.ooo = tuple(row for row, _ in lowered)
        self.inorder = tuple(row for _, row in lowered)

    def __getitem__(self, pc: int) -> InstrMeta:
        return self.metas[pc]

    def __len__(self) -> int:
        return len(self.metas)


@lru_cache(maxsize=64)
def program_meta(program: Program) -> ProgramMeta:
    """Metadata table for ``program`` (cached on program identity;
    :class:`Program` hashes by identity)."""
    return ProgramMeta(program)
