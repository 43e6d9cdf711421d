"""Architectural (functional) execution.

The :class:`Machine` implements the ISA semantics once, with pluggable
*ports* for memory, so the same code executes both roles in the paper:

* the **main core** run (:func:`execute_program`), which reads/writes the
  real memory image, optionally applies a fault model, and records the
  committed dynamic trace; and
* the **checker replay** (:mod:`repro.detection.checker`), which plugs in
  ports that consume the load-store log and validate against it.

Dispatch is **pre-decoded**: :func:`repro.isa.program.predecode` lowers
every static instruction into a flat record, and :func:`bound_handlers`
binds one specialised step closure per record (operands, fall-through
successor, and x0-drop behaviour are resolved once per program).  The
step loop is then a single indexed call per instruction — no opcode
inspection, no operand-field tests.

The committed trace is **columnar** (structure of arrays): parallel
columns for pc, writebacks, branch outcome, and a CSR-indexed block of
memory-operation columns (kind/addr/value/used_value).  Consumers read
the columns directly.

Integer registers hold 64-bit unsigned bit patterns; FP registers hold
Python floats (IEEE-754 doubles).  All memory traffic is in 64-bit bit
patterns, so FP data round-trips exactly and all comparisons the detection
hardware performs are bit-exact, as they would be in silicon.
"""

from __future__ import annotations

import math
import threading
from array import array
from functools import partial
from itertools import compress
from typing import Callable, NamedTuple

from repro.common.errors import AssemblyError, ExecutionError
from repro.isa.instructions import (
    MASK64,
    NUM_FP_REGS,
    NUM_INT_REGS,
    Opcode,
    to_signed,
    uop_count,
)
from repro.isa.memory_image import MemoryImage, bits_to_float, float_to_bits
from repro.isa.program import DecodedInstr, HANDLER_OPS, Program, predecode

# mem_kind codes
LOAD = 0
STORE = 1
NONDET = 2


def _div(a: int, b: int) -> int:
    """RISC-V-style signed division: /0 gives all-ones, overflow wraps."""
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return MASK64
    if sa == -(1 << 63) and sb == -1:
        return a
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return quotient & MASK64


def _rem(a: int, b: int) -> int:
    """RISC-V-style signed remainder: %0 gives the dividend."""
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return a
    if sa == -(1 << 63) and sb == -1:
        return 0
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return remainder & MASK64


#: The one NaN that FADD, FSUB, FMUL, FDIV, FMIN, FMAX and FMADD write
#: (AArch64's default-NaN mode does the same).  CPython's float
#: arithmetic returns either operand's NaN payload depending on how warm
#: the code object is, so propagated payloads would make result bits
#: depend on how often a process has already run the code.
DEFAULT_NAN = math.nan


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.inf if (a > 0) == (math.copysign(1.0, b) > 0) else -math.inf
    return a / b


def _fsqrt(a: float) -> float:
    return math.sqrt(a) if a >= 0.0 else math.nan


def _f2i(a: float) -> int:
    if math.isnan(a):
        return 0
    if a >= 2.0**63:
        return (1 << 63) - 1
    if a <= -(2.0**63):
        return 1 << 63  # -2^63 as unsigned
    return int(a) & MASK64


# -- bound step handlers ------------------------------------------------------
#
# Each factory receives one DecodedInstr and returns a closure
# ``run(machine) -> (dsts, mem, taken)`` with every operand (and the
# fall-through pc) captured as a local.  ``mem`` entries are plain
# ``(kind, addr, value, used_value)`` tuples — the executor's raw wire
# format.
#
# x0 semantics are specialised at bind time: an integer destination of
# x0 is neither written nor recorded (architecturally invisible), which
# reproduces the old step loop's drop rule exactly.

def _make_int_rr(fn, d: DecodedInstr):
    rd, rs1, rs2, nxt = d.rd, d.rs1, d.rs2, d.pc + 1
    if rd:
        def run(m):
            x = m.xregs
            value = fn(x[rs1], x[rs2])
            x[rd] = value
            m.pc = nxt
            return ((False, rd, value),), (), None
    else:
        def run(m):
            m.pc = nxt
            return (), (), None
    return run


def _make_int_ri(fn, d: DecodedInstr):
    rd, rs1, nxt = d.rd, d.rs1, d.pc + 1
    imm = int(d.imm)
    if rd:
        def run(m):
            x = m.xregs
            value = fn(x[rs1], imm)
            x[rd] = value
            m.pc = nxt
            return ((False, rd, value),), (), None
    else:
        def run(m):
            m.pc = nxt
            return (), (), None
    return run


def _make_addi(d: DecodedInstr):
    rd, rs1, nxt = d.rd, d.rs1, d.pc + 1
    imm = int(d.imm)
    if rd:
        def run(m):
            x = m.xregs
            value = (x[rs1] + imm) & MASK64
            x[rd] = value
            m.pc = nxt
            return ((False, rd, value),), (), None
    else:
        def run(m):
            m.pc = nxt
            return (), (), None
    return run


def _make_add(d: DecodedInstr):
    rd, rs1, rs2, nxt = d.rd, d.rs1, d.rs2, d.pc + 1
    if rd:
        def run(m):
            x = m.xregs
            value = (x[rs1] + x[rs2]) & MASK64
            x[rd] = value
            m.pc = nxt
            return ((False, rd, value),), (), None
    else:
        def run(m):
            m.pc = nxt
            return (), (), None
    return run


def _make_sub(d: DecodedInstr):
    rd, rs1, rs2, nxt = d.rd, d.rs1, d.rs2, d.pc + 1
    if rd:
        def run(m):
            x = m.xregs
            value = (x[rs1] - x[rs2]) & MASK64
            x[rd] = value
            m.pc = nxt
            return ((False, rd, value),), (), None
    else:
        def run(m):
            m.pc = nxt
            return (), (), None
    return run


def _make_movi(d: DecodedInstr):
    rd, nxt = d.rd, d.pc + 1
    value = int(d.imm) & MASK64
    dsts = ((False, rd, value),) if rd else ()

    def run(m):
        if rd:
            m.xregs[rd] = value
        m.pc = nxt
        return dsts, (), None
    return run


def _make_ld(d: DecodedInstr):
    rd, rs1, nxt = d.rd, d.rs1, d.pc + 1
    imm = int(d.imm)
    if rd:
        def run(m):
            x = m.xregs
            addr, bits = m.load_port((x[rs1] + imm) & MASK64)
            x[rd] = bits
            m.pc = nxt
            return ((False, rd, bits),), ((LOAD, addr, bits, bits),), None
    else:
        def run(m):
            addr, bits = m.load_port((m.xregs[rs1] + imm) & MASK64)
            m.pc = nxt
            return (), ((LOAD, addr, bits, bits),), None
    return run


def _make_st(d: DecodedInstr):
    rs1, rs2, nxt = d.rs1, d.rs2, d.pc + 1
    imm = int(d.imm)

    def run(m):
        x = m.xregs
        addr, value = m.store_port((x[rs1] + imm) & MASK64, x[rs2])
        m.pc = nxt
        return (), ((STORE, addr, value, value),), None
    return run


def _make_fld(d: DecodedInstr):
    rd, rs1, nxt = d.rd, d.rs1, d.pc + 1
    imm = int(d.imm)

    def run(m):
        addr, bits = m.load_port((m.xregs[rs1] + imm) & MASK64)
        value = bits_to_float(bits)
        m.fregs[rd] = value
        m.pc = nxt
        return ((True, rd, value),), ((LOAD, addr, bits, bits),), None
    return run


def _make_fst(d: DecodedInstr):
    rs1, rs2, nxt = d.rs1, d.rs2, d.pc + 1
    imm = int(d.imm)

    def run(m):
        addr, bits = m.store_port((m.xregs[rs1] + imm) & MASK64,
                                  float_to_bits(m.fregs[rs2]))
        m.pc = nxt
        return (), ((STORE, addr, bits, bits),), None
    return run


def _make_ldp(d: DecodedInstr):
    rd, rd2, rs1, nxt = d.rd, d.rd2, d.rs1, d.pc + 1
    imm = int(d.imm)

    def run(m):
        x = m.xregs
        addr = (x[rs1] + imm) & MASK64
        addr2 = (addr + 8) & MASK64
        addr, bits1 = m.load_port(addr)
        addr2, bits2 = m.load_port(addr2)
        if rd:
            x[rd] = bits1
        if rd2:
            x[rd2] = bits2
        m.pc = nxt
        if rd and rd2:
            dsts = ((False, rd, bits1), (False, rd2, bits2))
        elif rd:
            dsts = ((False, rd, bits1),)
        elif rd2:
            dsts = ((False, rd2, bits2),)
        else:
            dsts = ()
        return dsts, ((LOAD, addr, bits1, bits1),
                      (LOAD, addr2, bits2, bits2)), None
    return run


def _make_stp(d: DecodedInstr):
    rs1, rs2, rs3, nxt = d.rs1, d.rs2, d.rs3, d.pc + 1
    imm = int(d.imm)

    def run(m):
        x = m.xregs
        addr = (x[rs1] + imm) & MASK64
        addr2 = (addr + 8) & MASK64
        addr, v1 = m.store_port(addr, x[rs2])
        addr2, v2 = m.store_port(addr2, x[rs3])
        m.pc = nxt
        return (), ((STORE, addr, v1, v1), (STORE, addr2, v2, v2)), None
    return run


def _make_branch(cmp, d: DecodedInstr):
    rs1, rs2, target, nxt = d.rs1, d.rs2, d.target, d.pc + 1

    def run(m):
        x = m.xregs
        if cmp(x[rs1], x[rs2]):
            m.pc = target
            return (), (), True
        m.pc = nxt
        return (), (), False
    return run


def _make_j(d: DecodedInstr):
    target = d.target

    def run(m):
        m.pc = target
        return (), (), True
    return run


def _make_jal(d: DecodedInstr):
    rd, target = d.rd, d.target
    link = (d.pc + 1) & MASK64
    dsts = ((False, rd, link),) if rd else ()

    def run(m):
        if rd:
            m.xregs[rd] = link
        m.pc = target
        return dsts, (), True
    return run


def _make_jalr(d: DecodedInstr):
    rd, rs1 = d.rd, d.rs1
    imm = int(d.imm)
    link = (d.pc + 1) & MASK64
    dsts = ((False, rd, link),) if rd else ()

    def run(m):
        x = m.xregs
        next_pc = (x[rs1] + imm) & MASK64
        if rd:
            x[rd] = link
        m.pc = next_pc
        return dsts, (), True
    return run


def _make_halt(d: DecodedInstr):
    def run(m):
        m.halted = True
        return (), (), None
    return run


def _make_nop(d: DecodedInstr):
    nxt = d.pc + 1

    def run(m):
        m.pc = nxt
        return (), (), None
    return run


def _make_nondet(op, d: DecodedInstr):
    rd, nxt = d.rd, d.pc + 1
    if rd:
        def run(m):
            value = m.nondet_port(op) & MASK64
            m.xregs[rd] = value
            m.pc = nxt
            return (((False, rd, value),),
                    ((NONDET, 0, value, value),), None)
    else:
        def run(m):
            value = m.nondet_port(op) & MASK64
            m.pc = nxt
            return (), ((NONDET, 0, value, value),), None
    return run


def _make_fp_bin(fn, d: DecodedInstr):
    rd, rs1, rs2, nxt = d.rd, d.rs1, d.rs2, d.pc + 1

    def run(m):
        f = m.fregs
        value = fn(f[rs1], f[rs2])
        if value != value:
            value = DEFAULT_NAN
        f[rd] = value
        m.pc = nxt
        return ((True, rd, value),), (), None
    return run


def _make_fmadd(d: DecodedInstr):
    rd, rs1, rs2, rs3, nxt = d.rd, d.rs1, d.rs2, d.rs3, d.pc + 1

    def run(m):
        f = m.fregs
        value = f[rs1] * f[rs2] + f[rs3]
        if value != value:
            value = DEFAULT_NAN
        f[rd] = value
        m.pc = nxt
        return ((True, rd, value),), (), None
    return run


def _make_fp_un(fn, d: DecodedInstr):
    rd, rs1, nxt = d.rd, d.rs1, d.pc + 1

    def run(m):
        f = m.fregs
        value = fn(f[rs1])
        f[rd] = value
        m.pc = nxt
        return ((True, rd, value),), (), None
    return run


def _make_fmovi(d: DecodedInstr):
    rd, nxt = d.rd, d.pc + 1
    value = float(d.imm)
    dsts = ((True, rd, value),)

    def run(m):
        m.fregs[rd] = value
        m.pc = nxt
        return dsts, (), None
    return run


def _make_i2f(d: DecodedInstr):
    rd, rs1, nxt = d.rd, d.rs1, d.pc + 1

    def run(m):
        value = float(to_signed(m.xregs[rs1]))
        m.fregs[rd] = value
        m.pc = nxt
        return ((True, rd, value),), (), None
    return run


def _make_f2i(d: DecodedInstr):
    rd, rs1, nxt = d.rd, d.rs1, d.pc + 1
    if rd:
        def run(m):
            value = _f2i(m.fregs[rs1])
            m.xregs[rd] = value
            m.pc = nxt
            return ((False, rd, value),), (), None
    else:
        def run(m):
            m.pc = nxt
            return (), (), None
    return run


def _make_fcmp(fn, d: DecodedInstr):
    rd, rs1, rs2, nxt = d.rd, d.rs1, d.rs2, d.pc + 1
    if rd:
        def run(m):
            f = m.fregs
            value = fn(f[rs1], f[rs2])
            m.xregs[rd] = value
            m.pc = nxt
            return ((False, rd, value),), (), None
    else:
        def run(m):
            m.pc = nxt
            return (), (), None
    return run


_FACTORIES: dict[Opcode, Callable[[DecodedInstr], Callable]] = {
    Opcode.ADD: _make_add,
    Opcode.SUB: _make_sub,
    Opcode.AND: partial(_make_int_rr, lambda a, b: a & b),
    Opcode.OR: partial(_make_int_rr, lambda a, b: a | b),
    Opcode.XOR: partial(_make_int_rr, lambda a, b: a ^ b),
    Opcode.SLL: partial(_make_int_rr, lambda a, b: (a << (b & 63)) & MASK64),
    Opcode.SRL: partial(_make_int_rr, lambda a, b: a >> (b & 63)),
    Opcode.SRA: partial(_make_int_rr,
                        lambda a, b: (to_signed(a) >> (b & 63)) & MASK64),
    Opcode.SLT: partial(_make_int_rr,
                        lambda a, b: 1 if to_signed(a) < to_signed(b) else 0),
    Opcode.SLTU: partial(_make_int_rr, lambda a, b: 1 if a < b else 0),
    Opcode.MUL: partial(_make_int_rr, lambda a, b: (a * b) & MASK64),
    Opcode.DIV: partial(_make_int_rr, _div),
    Opcode.REM: partial(_make_int_rr, _rem),
    Opcode.ADDI: _make_addi,
    Opcode.ANDI: partial(_make_int_ri, lambda a, i: a & (i & MASK64)),
    Opcode.ORI: partial(_make_int_ri, lambda a, i: a | (i & MASK64)),
    Opcode.XORI: partial(_make_int_ri, lambda a, i: a ^ (i & MASK64)),
    Opcode.SLLI: partial(_make_int_ri, lambda a, i: (a << (i & 63)) & MASK64),
    Opcode.SRLI: partial(_make_int_ri, lambda a, i: a >> (i & 63)),
    Opcode.SRAI: partial(_make_int_ri,
                         lambda a, i: (to_signed(a) >> (i & 63)) & MASK64),
    Opcode.SLTI: partial(_make_int_ri,
                         lambda a, i: 1 if to_signed(a) < i else 0),
    Opcode.MOVI: _make_movi,
    Opcode.LD: _make_ld,
    Opcode.ST: _make_st,
    Opcode.LDP: _make_ldp,
    Opcode.STP: _make_stp,
    Opcode.FLD: _make_fld,
    Opcode.FST: _make_fst,
    Opcode.FADD: partial(_make_fp_bin, lambda a, b: a + b),
    Opcode.FSUB: partial(_make_fp_bin, lambda a, b: a - b),
    Opcode.FMUL: partial(_make_fp_bin, lambda a, b: a * b),
    Opcode.FDIV: partial(_make_fp_bin, _fdiv),
    Opcode.FMIN: partial(_make_fp_bin,
                         lambda a, b: b if (math.isnan(a) or b < a) else a),
    Opcode.FMAX: partial(_make_fp_bin,
                         lambda a, b: b if (math.isnan(a) or b > a) else a),
    Opcode.FMADD: _make_fmadd,
    Opcode.FSQRT: partial(_make_fp_un, _fsqrt),
    Opcode.FNEG: partial(_make_fp_un, lambda a: -a),
    Opcode.FABS: partial(_make_fp_un, abs),
    Opcode.FMOV: partial(_make_fp_un, lambda a: a),
    Opcode.FMOVI: _make_fmovi,
    Opcode.FCVT_I2F: _make_i2f,
    Opcode.FCVT_F2I: _make_f2i,
    Opcode.FCMPLT: partial(_make_fcmp, lambda a, b: 1 if a < b else 0),
    Opcode.FCMPLE: partial(_make_fcmp, lambda a, b: 1 if a <= b else 0),
    Opcode.FCMPEQ: partial(_make_fcmp, lambda a, b: 1 if a == b else 0),
    Opcode.BEQ: partial(_make_branch, lambda a, b: a == b),
    Opcode.BNE: partial(_make_branch, lambda a, b: a != b),
    Opcode.BLT: partial(_make_branch,
                        lambda a, b: to_signed(a) < to_signed(b)),
    Opcode.BGE: partial(_make_branch,
                        lambda a, b: to_signed(a) >= to_signed(b)),
    Opcode.BLTU: partial(_make_branch, lambda a, b: a < b),
    Opcode.BGEU: partial(_make_branch, lambda a, b: a >= b),
    Opcode.J: _make_j,
    Opcode.JAL: _make_jal,
    Opcode.JALR: _make_jalr,
    Opcode.HALT: _make_halt,
    Opcode.NOP: _make_nop,
    Opcode.RDRAND: partial(_make_nondet, Opcode.RDRAND),
    Opcode.RDCYCLE: partial(_make_nondet, Opcode.RDCYCLE),
}

#: Factory table indexed by the pre-decoder's dense handler index.
_FACTORY_TABLE = tuple(_FACTORIES[op] for op in HANDLER_OPS)


def bound_handlers(program: Program) -> tuple:
    """One specialised step closure per static instruction of ``program``
    (bound once per program; every :class:`Machine` over it shares them)."""
    cached = getattr(program, "_bound_handlers", None)
    if cached is None:
        table = _FACTORY_TABLE
        cached = tuple(table[d.hidx](d) for d in predecode(program))
        object.__setattr__(program, "_bound_handlers", cached)
    return cached


def _uops_by_pc(program: Program) -> tuple[int, ...]:
    """Per-pc micro-op counts (cached on the program)."""
    cached = getattr(program, "_uops_by_pc", None)
    if cached is None:
        cached = tuple(uop_count(i.op) for i in program.instructions)
        object.__setattr__(program, "_uops_by_pc", cached)
    return cached


# -- the columnar trace -------------------------------------------------------

class Trace:
    """The committed execution of a program, stored as columns.

    Structure of arrays: per-instruction columns (``pcs``, ``dsts``,
    ``takens``) are parallel and dense in commit order (``seq`` is the row
    index); memory operations live in flat CSR-indexed columns — row *i*'s
    entries are ``mem_kind/addr/value/used[mem_off[i]:mem_off[i + 1]]``.
    For a load, ``mem_value`` is what the ECC-protected memory returned
    at ``mem_addr`` — exactly what the load forwarding unit duplicates —
    while ``mem_used`` is what reached the main core's register file
    (different only under an injected load-value fault).  For a store
    both equal the committed data; for a ``NONDET`` entry the address is
    zero and the value is the forwarded result.
    ``takens`` encodes -1 = not a control instruction, 0/1 = branch
    outcome; ``next_pc`` is derived (``pcs[i + 1]``, or ``final_next_pc``
    for the last row).
    """

    __slots__ = (
        "program", "pcs", "dsts", "takens",
        "mem_off", "mem_kind", "mem_addr", "mem_value", "mem_used",
        "final_next_pc", "final_xregs", "final_fregs", "memory", "halted",
        "uop_count", "load_count", "store_count", "crashed",
        "fork_of", "fork_seq", "last_fault_seq", "_keyframes", "timings",
        "store_ref",
    )

    def __init__(self, program: Program, *, pcs, dsts, takens,
                 mem_off, mem_kind, mem_addr, mem_value, mem_used,
                 final_next_pc: int, final_xregs: list[int],
                 final_fregs: list[float], memory: MemoryImage,
                 halted: bool, uop_count: int = 0, load_count: int = 0,
                 store_count: int = 0, crashed: bool = False) -> None:
        self.program = program
        self.pcs = pcs
        self.dsts = dsts
        self.takens = takens
        self.mem_off = mem_off
        self.mem_kind = mem_kind
        self.mem_addr = mem_addr
        self.mem_value = mem_value
        self.mem_used = mem_used
        self.final_next_pc = final_next_pc
        self.final_xregs = final_xregs
        self.final_fregs = final_fregs
        self.memory = memory
        self.halted = halted
        #: total micro-ops (macro-ops counted by their crack factor)
        self.uop_count = uop_count
        self.load_count = load_count
        self.store_count = store_count
        #: True when an injected fault made the program trap (unaligned
        #: access, runaway control flow): the trace ends at the last commit
        #: and §IV-H's held-back termination applies
        self.crashed = crashed
        #: golden trace this one was forked from (None = executed whole);
        #: rows ``[0, fork_seq)`` are spliced golden columns, the rest
        #: came from live execution — process-local metadata, never
        #: serialised (see :func:`execute_forked`)
        self.fork_of: Trace | None = None
        self.fork_seq: int = 0
        #: the last row a fault perturbed on a forked trace (None on
        #: golden and stored traces): no row after it differs from a
        #: fault-free execution of the state before it
        self.last_fault_seq: int | None = None
        self._keyframes: "Keyframes | None" = None
        #: golden timing, one CoreResult per config key (see
        #: repro.core.timing); process-local memo, hydrated from store
        #: envelopes on read
        self.timings: dict = {}
        #: (store, key) binding when this trace came from / was put into a
        #: trace store — lets golden timing publish into the envelope
        self.store_ref: tuple | None = None

    def __len__(self) -> int:
        return len(self.pcs)

    def next_pc_of(self, seq: int) -> int:
        """The committed successor pc of row ``seq``."""
        return (self.pcs[seq + 1] if seq + 1 < len(self.pcs)
                else self.final_next_pc)

    def keyframes(self, interval: int | None = None) -> "Keyframes":
        """The trace's state keyframes (built on first use and cached;
        traces loaded from the golden-trace store arrive with them).

        ``interval=None`` uses whatever keyframes exist — consumers like
        :func:`fork_state` work with any interval — while an explicit
        ``interval`` (the producer-side knob) rebuilds on mismatch.
        """
        kf = self._keyframes
        if kf is None or (interval is not None and kf.interval != interval):
            kf = build_keyframes(
                self, DEFAULT_KEYFRAME_INTERVAL if interval is None
                else interval)
            self._keyframes = kf
        return kf

    # -- bit-exact comparison form -------------------------------------------

    def to_payload(self) -> dict:
        """JSON-serialisable column dump, the form tests and benches
        compare traces by (the golden-trace store writes its own binary
        envelope, see :mod:`repro.workloads.trace_store`).

        Bit-exact by construction: every FP value (writebacks, final FP
        registers) is encoded as its IEEE-754 bit pattern, so NaN payloads
        and signed zeros compare by their bits.
        """
        dsts = [
            [[1, idx, float_to_bits(value)] if is_fp else [0, idx, value]
             for is_fp, idx, value in row]
            for row in self.dsts
        ]
        return {
            "pcs": list(self.pcs),
            "dsts": dsts,
            "takens": list(self.takens),
            "mem_off": list(self.mem_off),
            "mem_kind": list(self.mem_kind),
            "mem_addr": list(self.mem_addr),
            "mem_value": list(self.mem_value),
            "mem_used": list(self.mem_used),
            "final_next_pc": self.final_next_pc,
            "final_xregs": list(self.final_xregs),
            "final_fregs": [float_to_bits(v) for v in self.final_fregs],
            "memory": sorted(self.memory.items()),
            "halted": self.halted,
            "uop_count": self.uop_count,
            "load_count": self.load_count,
            "store_count": self.store_count,
            "crashed": self.crashed,
        }


def same_final_registers(a: Trace, b: Trace) -> bool:
    """True when two runs end with equal registers.

    FP registers compare by IEEE-754 bit pattern — the comparison the
    paper's checkpoint/comparator hardware performs.  Python float
    equality would both drop NaN states (NaN != NaN on recomputation)
    and resurrect them via the identity shortcut when the fork path
    splices the golden trace's float objects, or when a trace shares
    no float objects with the other because it was decoded from the
    trace store: the answer would depend on where the traces came from.
    """
    return (a.final_xregs == b.final_xregs
            and list(map(float_to_bits, a.final_fregs))
            == list(map(float_to_bits, b.final_fregs)))


class Machine:
    """An architectural interpreter over a :class:`Program`.

    Ports (all optional, defaulting to direct memory access):

    ``load_port(addr) -> (addr_used, bits)``
        Perform a load; returns the address actually accessed (fault
        injection may perturb it) and the 64-bit bit pattern read.
    ``store_port(addr, value) -> (addr_used, value_used)``
        Perform a store; returns what was actually committed.
    ``nondet_port(op) -> int``
        Produce the result of RDRAND/RDCYCLE.

    The detection checker substitutes ports that read and validate the
    load-store log instead of touching memory; the fault injector wraps
    the default ports to model store-queue and AGU corruption.

    Stepping drives the program's pre-bound handler table: one indexed
    closure call per instruction (see :func:`bound_handlers`).
    """

    __slots__ = (
        "program", "memory", "xregs", "fregs", "pc", "halted",
        "instr_count", "load_port", "store_port", "nondet_port", "_steps",
    )

    def __init__(
        self,
        program: Program,
        memory: MemoryImage | None = None,
        load_port: Callable[[int], tuple[int, int]] | None = None,
        store_port: Callable[[int, int], tuple[int, int]] | None = None,
        nondet_port: Callable[[Opcode], int] | None = None,
        pc: int | None = None,
    ) -> None:
        self.program = program
        self.memory = memory if memory is not None else program.initial_memory()
        self.xregs = [0] * NUM_INT_REGS
        self.fregs = [0.0] * NUM_FP_REGS
        self.pc = program.entry if pc is None else pc
        self.halted = False
        self.instr_count = 0
        self.load_port = load_port if load_port is not None else self._memory_load
        self.store_port = store_port if store_port is not None else self._memory_store
        self.nondet_port = nondet_port if nondet_port is not None else self._default_nondet
        self._steps = bound_handlers(program)

    def _memory_load(self, addr: int) -> tuple[int, int]:
        return addr, self.memory.load(addr)

    def _memory_store(self, addr: int, value: int) -> tuple[int, int]:
        self.memory.store(addr, value)
        return addr, value

    def _default_nondet(self, op: Opcode) -> int:
        if op is Opcode.RDCYCLE:
            return self.instr_count & MASK64
        # a cheap deterministic pseudo-random stream (RDRAND)
        x = (self.instr_count * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) & MASK64
        x ^= x >> 29
        return x

    def set_registers(self, xregs: list[int], fregs: list[float]) -> None:
        """Install architectural register state (checkpoint restore)."""
        if len(xregs) != NUM_INT_REGS or len(fregs) != NUM_FP_REGS:
            raise ExecutionError("register state has wrong shape")
        self.xregs = list(xregs)
        self.xregs[0] = 0
        self.fregs = list(fregs)

    def step(self) -> tuple[tuple, tuple, bool | None]:
        """Execute one instruction.

        Returns ``(dsts, mem, taken)`` where ``dsts`` is a tuple of
        ``(is_fp, index, value)`` writebacks, ``mem`` a tuple of
        ``(kind, addr, value, used_value)`` entries, and ``taken`` the
        branch outcome (None for non-control instructions).  Advances
        ``self.pc``.
        """
        if self.halted:
            raise ExecutionError("machine is halted")
        pc = self.pc
        try:
            fn = self._steps[pc]
        except IndexError:
            raise AssemblyError(
                f"instruction fetch out of range: pc={pc}") from None
        out = fn(self)
        self.instr_count += 1
        return out


#: Default cap on executed instructions, to catch runaway programs.
DEFAULT_MAX_INSTRUCTIONS = 20_000_000


def _commit_loop(machine: Machine, fault_injector, max_instructions: int,
                 pcs, dsts_col, takens,
                 mem_off, mem_kind, mem_addr, mem_value, mem_used,
                 seq: int, uops: int, loads: int, stores: int,
                 stop_seq: int | None = None,
                 stop_entries: int | None = None,
                 ) -> tuple[int, int, int, bool]:
    """The one commit loop shared by :func:`execute_program` and
    :func:`execute_forked`: run ``machine`` until halt or crash,
    appending every committed row to the caller's columns (which may
    already hold a spliced prefix — ``seq`` and the counters continue
    from it).  Returns the final ``(uops, loads, stores, crashed)``.

    ``stop_seq`` ends commitment (without halting or crashing) once
    ``seq`` reaches it — for callers like activation-only fault
    verdicts that provably never read the trace past that point, and
    for :func:`execute_forked`, whose window pauses at the injector's
    inert point; the fork path then either returns the golden trace or
    calls the loop again on the spliced columns to resume from the same
    ``seq`` and counters.  ``stop_entries`` likewise ends commitment
    once the columns hold that many log entries.  It is checked per row
    on handlers and per block in the block loop, so the run may end up
    to one block past the row whose entries reach it.  The window's
    columns start at the fork seq:
    they begin empty, with row ``seq`` at index 0, while ``mem_off``
    starts at the golden prefix's entry count.  The block-trap path
    below slices the columns by absolute seq, so it would misread them;
    a window never reaches it, because every window row is at or below
    ``inject_until`` and goes through ``FaultInjector.step``.

    Rows up to the injector's last fault seq go through
    :meth:`~repro.detection.faults.FaultInjector.step`.  Every later row
    — every row of a fault-free run — goes through one block loop when
    the block-compiled fast path is enabled (see
    :mod:`repro.isa.blocks`): at a static block leader with at least
    ``MAX_BLOCK_LEN`` rows of headroom under the limit, whole basic
    blocks commit through one generated function each; a row entered
    mid-block, and the last ``MAX_BLOCK_LEN`` rows before the limit,
    run on their handlers.  With an injector attached a trap ends the
    run ``crashed`` wherever it strikes — an illegal access, a fetch
    outside the program, or a block row (blocks are trap-precise, so
    the rows before the trapping one stay committed); without one it
    raises.
    """
    # deferred import: blocks.py generates code *against* this module
    from repro.isa.blocks import (
        MAX_BLOCK_LEN,
        STATS,
        block_exec_enabled,
        block_table,
    )

    program = machine.program
    inject = fault_injector is not None
    # last seq the injector can still act on; later rows commit as in a
    # fault-free run (the injector would pass them through unchanged, at
    # the cost of a per-instruction wrapper) while keeping the injected
    # run's trap semantics
    inject_until = -1
    if inject:
        last = fault_injector.last_execution_seq()
        inject_until = max_instructions if last is None else last
    steps = machine._steps
    uops_table = _uops_by_pc(program)
    # runs[pc] is the block variant at a static leader, None elsewhere
    runs = block_table(program).runs if block_exec_enabled() else ()
    tlen = len(runs)

    pcs_append = pcs.append
    dsts_append = dsts_col.append
    takens_append = takens.append
    off_append = mem_off.append
    kind_append = mem_kind.append
    addr_append = mem_addr.append
    value_append = mem_value.append
    used_append = mem_used.append

    limit = (max_instructions if stop_seq is None
             else min(stop_seq, max_instructions))
    # no "Q" offset column reaches 1 << 64 entries
    entry_limit = 1 << 64 if stop_entries is None else stop_entries
    entries = mem_off[-1]
    crashed = False
    seq0 = seq
    block_instrs = block_calls = 0
    # with MAX_BLOCK_LEN of headroom under the limit, any block commits
    # whole — the block loop below needs no per-block limit guard
    safe = limit - MAX_BLOCK_LEN
    while not machine.halted:
        if seq >= limit:
            if seq < max_instructions:
                break  # stop_seq reached: the caller needs nothing more
            if inject:
                # a fault sent the program into a runaway loop: §IV-J's
                # timeouts bound detection; the run ends here
                crashed = True
                break
            raise ExecutionError(
                f"{program.name}: exceeded {max_instructions} instructions "
                f"(infinite loop?)")
        if entries >= entry_limit:
            break  # stop_entries reached: the caller needs nothing more
        pc = machine.pc
        if inject_until < seq <= safe and pc < tlen and runs[pc] is not None:
            # the block loop: every block commits whole, so the
            # per-iteration guards reduce to halt/limit/leader checks;
            # each run function returns its static (n, uops, loads,
            # stores) counts, so no per-call attribute walks either
            _s0 = seq
            fn = runs[pc]
            try:
                while True:
                    dn, du, dl, ds = fn(machine, seq, pcs, dsts_col, takens,
                                        mem_off, mem_kind, mem_addr,
                                        mem_value, mem_used)
                    seq += dn
                    uops += du
                    loads += dl
                    stores += ds
                    block_calls += 1
                    if (machine.halted or seq > safe
                            or mem_off[-1] >= entry_limit):
                        break
                    pc = machine.pc
                    if pc >= tlen:
                        break
                    fn = runs[pc]
                    if fn is None:
                        break
            except ExecutionError:
                if not inject:
                    raise
                # a corrupted value made a block row trap: the block
                # committed the rows before it, which stand (§IV-H)
                done = len(pcs)
                uops += sum(map(uops_table.__getitem__, pcs[seq:done]))
                kinds = bytes(mem_kind[mem_off[seq]:])
                loads += kinds.count(LOAD)
                stores += kinds.count(STORE)
                block_instrs += done - _s0
                seq = done
                crashed = True
                break
            block_instrs += seq - _s0
            entries = mem_off[-1]
            continue
        if seq <= inject_until:
            try:
                dsts, mem, taken = fault_injector.step(machine, seq)
            except (ExecutionError, AssemblyError):
                # a corrupted value produced an illegal access or sent
                # control flow off the program: the program traps;
                # already-committed state stands and the outstanding
                # checks still run (§IV-H)
                crashed = True
                break
        else:
            try:
                fn = steps[pc]
            except IndexError:
                if inject:
                    crashed = True  # state corrupted earlier: wild fetch
                    break
                raise AssemblyError(
                    f"instruction fetch out of range: pc={pc}") from None
            if inject:
                # state corrupted earlier can still trap here
                try:
                    dsts, mem, taken = fn(machine)
                except ExecutionError:
                    crashed = True
                    break
            else:
                dsts, mem, taken = fn(machine)
            machine.instr_count = seq + 1

        pcs_append(pc)
        dsts_append(dsts)
        takens_append(-1 if taken is None else (1 if taken else 0))
        if mem:
            for kind, addr, value, used in mem:
                kind_append(kind)
                addr_append(addr)
                value_append(value)
                used_append(used)
                if kind == LOAD:
                    loads += 1
                elif kind == STORE:
                    stores += 1
            entries += len(mem)
        off_append(entries)
        uops += uops_table[pc]
        seq += 1

    STATS.block_instrs += block_instrs
    STATS.block_calls += block_calls
    STATS.total_instrs += seq - seq0
    return uops, loads, stores, crashed


def execute_program(
    program: Program,
    fault_injector=None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    stop_seq: int | None = None,
    start: "ForkState | None" = None,
) -> Trace:
    """Run ``program`` to completion on the (simulated) main core.

    ``fault_injector`` is an optional :class:`repro.detection.faults.FaultInjector`
    applied at the architectural fault sites; ``None`` is the fault-free
    fast path.  ``stop_seq`` truncates commitment at that seq for
    callers that never read further (see :func:`_commit_loop`).
    ``start`` runs from that architectural state instead of the
    program's entry (rollback recovery re-executes from a
    :func:`fork_state`); the run takes over its memory image, and its
    rows and counts are still numbered from 0.
    Returns the committed columnar :class:`Trace`.
    """
    if start is None:
        memory = program.initial_memory()
        machine = Machine(program, memory=memory)
    else:
        memory = start.memory
        machine = Machine(program, memory=memory, pc=start.pc)
        machine.set_registers(start.xregs, start.fregs)
    if fault_injector is not None:
        fault_injector.attach(machine)

    pcs = array("Q")
    dsts_col: list[tuple] = []
    takens = array("b")
    mem_off = array("Q", (0,))
    mem_kind = array("b")
    mem_addr = array("Q")
    mem_value = array("Q")
    mem_used = array("Q")

    uops, loads, stores, crashed = _commit_loop(
        machine, fault_injector, max_instructions,
        pcs, dsts_col, takens,
        mem_off, mem_kind, mem_addr, mem_value, mem_used,
        seq=0, uops=0, loads=0, stores=0, stop_seq=stop_seq)

    return Trace(
        program,
        pcs=pcs,
        dsts=dsts_col,
        takens=takens,
        mem_off=mem_off,
        mem_kind=mem_kind,
        mem_addr=mem_addr,
        mem_value=mem_value,
        mem_used=mem_used,
        final_next_pc=machine.pc,
        final_xregs=list(machine.xregs),
        final_fregs=list(machine.fregs),
        memory=memory,
        halted=machine.halted,
        uop_count=uops,
        load_count=loads,
        store_count=stores,
        crashed=crashed,
    )


# -- fork-point execution -----------------------------------------------------
#
# A fault job's execution is bit-identical to the golden trace up to the
# earliest injected fault, so re-executing that prefix is pure waste at
# campaign scale.  The fork path reconstructs the architectural state at
# the fork seq from the golden *columns* (no instruction execution),
# splices the golden columnar prefix into the new trace, and runs the
# live machine only from the fork seq onward.  Keyframes bound the
# column replay: every `interval` commits the golden trace snapshots the
# state *delta* since the previous keyframe, so reconstruction applies a
# few compact dicts and then replays at most `interval` rows.

#: Committed instructions between state keyframes (the knob trades
#: golden-envelope size against fork-state reconstruction work).
DEFAULT_KEYFRAME_INTERVAL = 1000


class Keyframe(NamedTuple):
    """State delta at one keyframe boundary.

    The frame describes the architectural state *before* committing row
    ``seq`` as a delta over the previous frame (or over the initial
    state for the first): registers written and words stored since then,
    plus cumulative uop/load/store counts at ``seq``.
    """

    seq: int
    xregs: dict[int, int]
    fregs: dict[int, float]
    mem: dict[int, int]
    uops: int
    loads: int
    stores: int


class Keyframes:
    """Periodic state keyframes over one committed trace."""

    __slots__ = ("interval", "frames")

    def __init__(self, interval: int, frames: tuple[Keyframe, ...]) -> None:
        self.interval = interval
        self.frames = frames

    # -- bit-exact comparison form -------------------------------------------

    def to_payload(self) -> dict:
        return {
            "interval": self.interval,
            "frames": [
                [f.seq,
                 sorted(f.xregs.items()),
                 sorted((i, float_to_bits(v)) for i, v in f.fregs.items()),
                 sorted(f.mem.items()),
                 f.uops, f.loads, f.stores]
                for f in self.frames
            ],
        }


def _replay_rows(trace: Trace, start: int, stop: int,
                 xregs, fregs, mem,
                 uops: int, loads: int, stores: int) -> tuple[int, int, int]:
    """Apply rows ``[start, stop)`` of ``trace``'s columns into the
    given register/memory containers (anything indexable — the register
    files of :func:`fork_state`, the delta dicts of
    :func:`build_keyframes`), returning the updated cumulative counts.
    This is the one definition of what committing a row does to
    architectural state outside the live machine.

    Register writebacks are a per-row walk; the memory side and the uop
    sum run over whole column slices in C-level builtins.  Stores apply
    in commit order, so ``dict.update`` over them is last-write-wins
    exactly like committing row by row, and every value that lands in a
    container is a Python ``int``.
    """
    for row in trace.dsts[start:stop]:
        for is_fp, idx, value in row:
            if is_fp:
                fregs[idx] = value
            else:
                xregs[idx] = value
    lo, hi = trace.mem_off[start], trace.mem_off[stop]
    kinds = bytes(trace.mem_kind[lo:hi])
    n_stores = kinds.count(STORE)
    if n_stores:
        mem.update(compress(zip(trace.mem_addr[lo:hi], trace.mem_value[lo:hi]),
                            map(STORE.__eq__, kinds)))
    uops += sum(map(_uops_by_pc(trace.program).__getitem__,
                    trace.pcs[start:stop]))
    return uops, loads + kinds.count(LOAD), stores + n_stores


def build_keyframes(trace: Trace,
                    interval: int = DEFAULT_KEYFRAME_INTERVAL) -> Keyframes:
    """One pass over ``trace``'s columns collecting per-interval deltas."""
    if interval < 1:
        raise ExecutionError(f"keyframe interval must be >= 1, got {interval}")
    frames: list[Keyframe] = []
    uops = loads = stores = 0
    prev = 0
    # rows after the last boundary never land in a frame: stop there
    for boundary in range(interval, len(trace.pcs), interval):
        xdelta: dict[int, int] = {}
        fdelta: dict[int, float] = {}
        mdelta: dict[int, int] = {}
        uops, loads, stores = _replay_rows(
            trace, prev, boundary, xdelta, fdelta, mdelta,
            uops, loads, stores)
        frames.append(Keyframe(boundary, xdelta, fdelta, mdelta,
                               uops, loads, stores))
        prev = boundary
    return Keyframes(interval, tuple(frames))


class ForkState(NamedTuple):
    """Architectural state before committing row ``fork_seq``."""

    xregs: list[int]
    fregs: list[float]
    memory: MemoryImage
    pc: int
    #: cumulative counts over the prefix (the spliced rows)
    uops: int
    loads: int
    stores: int


def fork_state(trace: Trace, fork_seq: int) -> ForkState:
    """Reconstruct the state at ``fork_seq`` by replaying columns.

    No instruction is executed: keyframe deltas cover the bulk of the
    prefix and the remaining (at most one interval of) rows have their
    ``dsts`` writebacks and store entries applied directly.
    """
    total = len(trace)
    if not 0 <= fork_seq <= total:
        raise ExecutionError(
            f"fork seq {fork_seq} outside 0..{total}")
    xregs = [0] * NUM_INT_REGS
    fregs = [0.0] * NUM_FP_REGS
    memory = trace.program.initial_memory()
    mem_words = memory._words
    uops = loads = stores = 0
    start = 0
    for frame in trace.keyframes().frames:
        if frame.seq > fork_seq:
            break
        for idx, value in frame.xregs.items():
            xregs[idx] = value
        for idx, value in frame.fregs.items():
            fregs[idx] = value
        mem_words.update(frame.mem)
        uops, loads, stores = frame.uops, frame.loads, frame.stores
        start = frame.seq

    uops, loads, stores = _replay_rows(
        trace, start, fork_seq, xregs, fregs, mem_words,
        uops, loads, stores)

    pc = trace.pcs[fork_seq] if fork_seq < total else trace.final_next_pc
    return ForkState(xregs, fregs, memory, pc, uops, loads, stores)


class ForkCursor:
    """Fork-state producer over one golden trace, advancing in place.

    :func:`fork_state` rebuilds every state from scratch — keyframes
    plus up to one interval of column replay per fork.  The cursor
    instead keeps one reconstruction and moves it forward: going from
    the previous fork seq to the next applies only the rows (and
    keyframes) in between, so forks in ascending seq order cost one
    walk over the prefix plus per-fork state copies.

    ``state(golden, fork_seq)`` matches the ``state_source`` signature
    of :func:`execute_forked` and returns a :class:`ForkState` equal to
    ``fork_state(golden, fork_seq)`` — same values, same types — with
    fresh containers (the live machine mutates them), whatever order
    the calls come in.  A seq behind the cursor rewinds it: it restarts
    from the initial state, which is the work :func:`fork_state` does.

    One cursor serves every fork of its golden trace in a process
    (:func:`fork_cursor`), across jobs as well as within a cell.  A lock
    makes each ``state`` call atomic, so threads may share a cursor.
    """

    __slots__ = ("golden", "_lock", "_seq", "_xregs", "_fregs", "_memory",
                 "_uops", "_loads", "_stores")

    def __init__(self, golden: Trace) -> None:
        if not golden.halted or golden.crashed:
            raise ExecutionError(
                "can only fork a clean, completely executed golden trace")
        self.golden = golden
        self._lock = threading.Lock()
        self._restart()

    def _restart(self) -> None:
        self._seq = 0
        self._xregs = [0] * NUM_INT_REGS
        self._fregs = [0.0] * NUM_FP_REGS
        self._memory = self.golden.program.initial_memory()
        self._uops = self._loads = self._stores = 0

    def state(self, golden: Trace, fork_seq: int) -> ForkState:
        if golden is not self.golden:
            raise ExecutionError(
                "fork cursor is bound to a different golden trace")
        total = len(golden)
        if not 0 <= fork_seq <= total:
            raise ExecutionError(f"fork seq {fork_seq} outside 0..{total}")
        with self._lock:
            if fork_seq < self._seq:
                self._restart()
            xregs, fregs = self._xregs, self._fregs
            mem_words = self._memory._words
            start = self._seq
            # a keyframe delta holds each touched location's value *at*
            # the boundary, so applying it on top of any state inside the
            # frame's interval lands exactly on the boundary state — the
            # cursor can fast-forward through frames from a mid-interval seq
            for frame in golden.keyframes().frames:
                if frame.seq <= start:
                    continue
                if frame.seq > fork_seq:
                    break
                for idx, value in frame.xregs.items():
                    xregs[idx] = value
                for idx, value in frame.fregs.items():
                    fregs[idx] = value
                mem_words.update(frame.mem)
                self._uops, self._loads, self._stores = (
                    frame.uops, frame.loads, frame.stores)
                start = frame.seq
            self._uops, self._loads, self._stores = _replay_rows(
                golden, start, fork_seq, xregs, fregs, mem_words,
                self._uops, self._loads, self._stores)
            self._seq = fork_seq
            pc = (golden.pcs[fork_seq] if fork_seq < total
                  else golden.final_next_pc)
            return ForkState(list(xregs), list(fregs), self._memory.copy(),
                             pc, self._uops, self._loads, self._stores)


#: Fork cursors kept alive per process (each pins its golden trace and
#: one memory image); campaigns run jobs grouped by golden trace.
FORK_CURSOR_CAP = 4

#: (golden identity → cursor) in LRU order — lookups move an entry to
#: the back, insertions evict from the front past :data:`FORK_CURSOR_CAP`.
_FORK_CURSORS: dict[int, ForkCursor] = {}
_FORK_CURSORS_LOCK = threading.Lock()


def fork_cursor(golden: Trace) -> ForkCursor:
    """The process's :class:`ForkCursor` over ``golden``."""
    key = id(golden)
    with _FORK_CURSORS_LOCK:
        cursor = _FORK_CURSORS.pop(key, None)
        if cursor is None or cursor.golden is not golden:
            cursor = ForkCursor(golden)
        _FORK_CURSORS[key] = cursor
        while len(_FORK_CURSORS) > FORK_CURSOR_CAP:
            _FORK_CURSORS.pop(next(iter(_FORK_CURSORS)))
        return cursor


def _column_slice(col, stop: int, window: array) -> array:
    """Mutable ``array`` holding ``col[:stop]`` followed by ``window``.

    Golden columns are ``array`` objects for in-process traces but
    read-only memory-mapped views for traces loaded from the binary
    store; the commit loop appends to the spliced columns, so the fork
    path always splices into a real ``array`` (of the window's type).
    """
    if isinstance(col, array):
        out = col[:stop]
    else:
        out = array(window.typecode)
        out.frombytes(bytes(col[:stop]))
    out += window
    return out


def execute_forked(
    golden: Trace,
    fault_injector,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    state_source=None,
    stop_seq: int | None = None,
    stop_entries: int | None = None,
) -> Trace:
    """Re-run ``golden``'s program with faults, executing only from the
    fork point.

    The result is byte-identical to
    ``execute_program(golden.program, fault_injector, max_instructions,
    stop_seq)``, except that a run no fault perturbed is ``golden``
    itself (below).  The live machine starts from the state at the
    injector's fork seq (its earliest fault, see
    :meth:`~repro.detection.faults.FaultInjector.fork_seq`),
    reconstructed from ``golden``.

    ``state_source`` substitutes the fork-state producer — a callable
    with :func:`fork_state`'s signature returning an equal state, e.g.
    the ``state`` of the process's :class:`ForkCursor` over ``golden``
    — and must be semantically identical to it; the default is
    :func:`fork_state` itself.

    Live execution first runs the *window*: from the fork seq to the
    injector's inert point, the seq after
    :meth:`~repro.detection.faults.FaultInjector.last_execution_seq`
    (to the end for hard faults, which have none; never past
    ``stop_seq`` or ``stop_entries``), on fresh columns that start at
    the fork seq.  If no
    fault fired in it and the run did not crash, the machine is in the
    golden state there, so the run is the golden run and ``golden``
    itself is returned: no column is copied and no trace is built.
    That includes an empty window (a job with only CHECKPOINT/CHECKER
    faults, or faults past the golden end).  Callers tell it apart by
    identity, or by ``fork_of`` being None, and must not mutate it.

    Otherwise the golden prefix ``[0, fork_seq)`` is spliced in front
    of the window's rows and execution resumes to the end (or to a
    stop).  The new trace carries ``fork_of``/``fork_seq``, so
    detection can resume the golden run's timing at the fork and
    recovery can roll back to a pre-fork state on the golden trace,
    and ``last_fault_seq``, the largest seq in the injector's
    activation list (None when nothing fired): a transient's row, or
    the last row a hard fault struck.  Every later row is a fault-free
    execution of the state before it, which is what lets detection's
    look-ahead stop at the log segment holding that row.

    ``stop_seq`` ends live execution once that seq commits, and
    ``stop_entries`` once the columns hold that many log entries (up to
    one block later, see :func:`_commit_loop`), for callers whose
    verdict provably never reads the trace past the stop: activation-
    only schemes stop at the inert point, and the detection scheme where
    the log segment holding a one-transient fault's row closes.  A
    perturbed run is then truncated and un-halted, a prefix of the
    complete run.
    """
    if not golden.halted or golden.crashed:
        raise ExecutionError(
            "can only fork a clean, completely executed golden trace")
    program = golden.program
    total = len(golden)
    fork_seq = fault_injector.fork_seq(total)
    window_stop = stop_seq
    last = fault_injector.last_execution_seq()
    if last is not None:
        inert = max(last + 1, fork_seq)
        window_stop = inert if stop_seq is None else min(inert, stop_seq)

    state = (state_source if state_source is not None
             else fork_state)(golden, fork_seq)
    machine = Machine(program, memory=state.memory, pc=state.pc)
    machine.set_registers(state.xregs, state.fregs)
    machine.instr_count = fork_seq
    machine.halted = fork_seq == total
    fault_injector.attach(machine)

    # the window's columns: rows numbered from the fork seq, entry
    # offsets continuing the golden prefix's (see _commit_loop)
    window = (array("Q"), [], array("b"),
              array("Q", (golden.mem_off[fork_seq],)),
              array("b"), array("Q"), array("Q"), array("Q"))
    uops, loads, stores, crashed = _commit_loop(
        machine, fault_injector, max_instructions, *window,
        seq=fork_seq, uops=state.uops, loads=state.loads,
        stores=state.stores, stop_seq=window_stop, stop_entries=stop_entries)
    if (not crashed and total <= max_instructions
            and not fault_injector.activations):
        # unperturbed up to the inert point (or halted at the golden
        # end): nothing later can diverge, and a run under the same
        # instruction cap completes like the golden one did
        return golden

    # a fault fired or the run crashed: splice the golden prefix in
    # front of the window (array/list slices: bulk C-level copies)
    w_pcs, w_dsts, w_takens, w_off, w_kind, w_addr, w_value, w_used = window
    entries = w_off[0]
    pcs = _column_slice(golden.pcs, fork_seq, w_pcs)
    dsts_col = golden.dsts[:fork_seq]
    dsts_col += w_dsts
    takens = _column_slice(golden.takens, fork_seq, w_takens)
    mem_off = _column_slice(golden.mem_off, fork_seq, w_off)
    mem_kind = _column_slice(golden.mem_kind, entries, w_kind)
    mem_addr = _column_slice(golden.mem_addr, entries, w_addr)
    mem_value = _column_slice(golden.mem_value, entries, w_value)
    mem_used = _column_slice(golden.mem_used, entries, w_used)
    if not crashed:
        uops, loads, stores, crashed = _commit_loop(
            machine, fault_injector, max_instructions,
            pcs, dsts_col, takens,
            mem_off, mem_kind, mem_addr, mem_value, mem_used,
            seq=len(pcs), uops=uops, loads=loads, stores=stores,
            stop_seq=stop_seq, stop_entries=stop_entries)

    trace = Trace(
        program,
        pcs=pcs,
        dsts=dsts_col,
        takens=takens,
        mem_off=mem_off,
        mem_kind=mem_kind,
        mem_addr=mem_addr,
        mem_value=mem_value,
        mem_used=mem_used,
        final_next_pc=machine.pc,
        final_xregs=list(machine.xregs),
        final_fregs=list(machine.fregs),
        memory=state.memory,
        halted=machine.halted,
        uop_count=uops,
        load_count=loads,
        store_count=stores,
        crashed=crashed,
    )
    trace.fork_of = golden
    trace.fork_seq = fork_seq
    trace.last_fault_seq = max(
        (seq for seq, _ in fault_injector.activations), default=None)
    return trace
