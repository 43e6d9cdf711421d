"""Property test: block-compiled vs per-instruction execution.

Hypothesis generates short randomized programs mixing ALU, FP, memory
(including the cracked pair ops), forward branches, a counted backward
loop (a self-loop block), and nondet reads — plus trap edges via
deliberately misaligned addresses.  Every generated program must
execute byte-identically under both modes: same trace payload, same
final architectural state (registers, memory words, next pc, halt
flag), or the same trap.  With an execution-site fault injected, the
full and the forked faulty runs must be identical in both modes too,
including runs that trap mid-block after the fault's last seq.
"""

from __future__ import annotations

import os

from hypothesis import given, settings, strategies as st

from repro.common.errors import ExecutionError
from repro.detection.faults import EXECUTION_SITES, FaultInjector, TransientFault
from repro.isa.blocks import BLOCK_EXEC_ENV
from repro.isa.executor import execute_forked, execute_program
from repro.isa.instructions import MASK64, Opcode
from repro.isa.program import ProgramBuilder

MEM_BASE = 0x1000
MEM_SLOTS = 16

_ALU_RR = (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
           Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.SLT, Opcode.SLTU,
           Opcode.MUL, Opcode.DIV, Opcode.REM)
_ALU_RI = (Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
           Opcode.SLLI, Opcode.SRLI, Opcode.SRAI, Opcode.SLTI)
_FP_RR = (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
          Opcode.FMIN, Opcode.FMAX)
_FP_UN = (Opcode.FSQRT, Opcode.FNEG, Opcode.FABS, Opcode.FMOV)
_FCMP = (Opcode.FCMPLT, Opcode.FCMPLE, Opcode.FCMPEQ)
_BRANCHES = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
             Opcode.BLTU, Opcode.BGEU)

u64 = st.integers(min_value=0, max_value=MASK64)
xreg = st.integers(min_value=1, max_value=8)
freg = st.integers(min_value=0, max_value=3)
slot = st.integers(min_value=0, max_value=MEM_SLOTS - 1)
finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)

straight_op = st.one_of(
    st.tuples(st.just("alu"), st.sampled_from(_ALU_RR), xreg, xreg, xreg),
    st.tuples(st.just("alui"), st.sampled_from(_ALU_RI), xreg, xreg,
              st.integers(min_value=-64, max_value=64)),
    st.tuples(st.just("fp"), st.sampled_from(_FP_RR), freg, freg, freg),
    st.tuples(st.just("fpun"), st.sampled_from(_FP_UN), freg, freg),
    st.tuples(st.just("fmadd"), freg, freg, freg, freg),
    st.tuples(st.just("fcmp"), st.sampled_from(_FCMP), xreg, freg, freg),
    st.tuples(st.just("cvt"), st.booleans(), st.integers(0, 3)),
    st.tuples(st.just("ld"), xreg, slot),
    st.tuples(st.just("st"), xreg, slot),
    st.tuples(st.just("ldp"), xreg, xreg, slot),
    st.tuples(st.just("stp"), xreg, xreg, slot),
    st.tuples(st.just("fld"), freg, slot),
    st.tuples(st.just("fst"), freg, slot),
    st.tuples(st.just("nondet"), st.booleans(), xreg),
)


def emit_straight(b: ProgramBuilder, spec) -> None:
    kind = spec[0]
    if kind == "alu":
        _, op, rd, rs1, rs2 = spec
        b.emit(op, rd=rd, rs1=rs1, rs2=rs2)
    elif kind == "alui":
        _, op, rd, rs1, imm = spec
        b.emit(op, rd=rd, rs1=rs1, imm=imm)
    elif kind == "fp":
        _, op, rd, rs1, rs2 = spec
        b.emit(op, rd=rd, rs1=rs1, rs2=rs2)
    elif kind == "fpun":
        _, op, rd, rs1 = spec
        b.emit(op, rd=rd, rs1=rs1)
    elif kind == "fmadd":
        _, rd, rs1, rs2, rs3 = spec
        b.emit(Opcode.FMADD, rd=rd, rs1=rs1, rs2=rs2, rs3=rs3)
    elif kind == "fcmp":
        _, op, rd, rs1, rs2 = spec
        b.emit(op, rd=rd, rs1=rs1, rs2=rs2)
    elif kind == "cvt":
        _, to_float, reg = spec
        if to_float:
            b.emit(Opcode.FCVT_I2F, rd=reg, rs1=reg + 1)
        else:
            b.emit(Opcode.FCVT_F2I, rd=reg + 1, rs1=reg)
    elif kind == "ld":
        _, rd, s = spec
        b.emit(Opcode.LD, rd=rd, rs1=9, imm=s * 8)
    elif kind == "st":
        _, rs, s = spec
        b.emit(Opcode.ST, rs2=rs, rs1=9, imm=s * 8)
    elif kind == "ldp":
        _, rd, rd2, s = spec
        b.emit(Opcode.LDP, rd=rd, rd2=rd2, rs1=9,
               imm=min(s, MEM_SLOTS - 2) * 8)
    elif kind == "stp":
        _, rs2, rs3, s = spec
        b.emit(Opcode.STP, rs2=rs2, rs3=rs3, rs1=9,
               imm=min(s, MEM_SLOTS - 2) * 8)
    elif kind == "fld":
        _, rd, s = spec
        b.emit(Opcode.FLD, rd=rd, rs1=9, imm=s * 8)
    elif kind == "fst":
        _, rs, s = spec
        b.emit(Opcode.FST, rs2=rs, rs1=9, imm=s * 8)
    elif kind == "nondet":
        _, cycle, rd = spec
        b.emit(Opcode.RDCYCLE if cycle else Opcode.RDRAND, rd=rd)


program_draw = st.fixed_dictionaries({
    "seeds": st.lists(u64, min_size=4, max_size=8),
    "fseeds": st.lists(finite, min_size=2, max_size=4),
    "words": st.lists(u64, min_size=MEM_SLOTS, max_size=MEM_SLOTS),
    "loop_iters": st.integers(min_value=1, max_value=6),
    "loop_body": st.lists(straight_op, min_size=0, max_size=6),
    "tail": st.lists(straight_op, min_size=0, max_size=8),
    "branch": st.tuples(st.sampled_from(_BRANCHES), xreg, xreg),
    "skipped": st.lists(straight_op, min_size=1, max_size=3),
    "misalign": st.one_of(st.none(),
                          st.integers(min_value=1, max_value=7)),
})


def build_program(draw: dict):
    b = ProgramBuilder("prop-block")
    for i, word in enumerate(draw["words"]):
        b.put_word(MEM_BASE + 8 * i, word)
    b.emit(Opcode.MOVI, rd=9, imm=MEM_BASE)            # memory base
    for i, seed in enumerate(draw["seeds"]):
        b.emit(Opcode.MOVI, rd=1 + i, imm=seed)
    for i, fseed in enumerate(draw["fseeds"]):
        b.emit(Opcode.FMOVI, rd=i, imm=fseed)

    # counted backward loop — a self-loop block, entered once per trip,
    # when the body has no terminator inside
    b.emit(Opcode.MOVI, rd=11, imm=draw["loop_iters"])
    b.label("loop")
    for spec in draw["loop_body"]:
        emit_straight(b, spec)
    b.emit(Opcode.ADDI, rd=11, rs1=11, imm=-1)
    b.emit(Opcode.BNE, rs1=11, rs2=0, target="loop")

    # forward branch over a short skipped run
    op, rs1, rs2 = draw["branch"]
    b.emit(op, rs1=rs1, rs2=rs2, target="join")
    for spec in draw["skipped"]:
        emit_straight(b, spec)
    b.label("join")
    for spec in draw["tail"]:
        emit_straight(b, spec)

    # optional trap edge: a load whose address is deliberately misaligned
    if draw["misalign"] is not None:
        b.emit(Opcode.LD, rd=1, rs1=9, imm=draw["misalign"])
    b.emit(Opcode.HALT)
    return b.build()


def run_mode(program, mode: str, run=None):
    """(trace, None) on success or (None, error type) on a trap, with
    the block engine switched to ``mode``; ``run(program)`` defaults to
    a fault-free execution."""
    previous = os.environ.get(BLOCK_EXEC_ENV)
    os.environ[BLOCK_EXEC_ENV] = mode
    try:
        if run is None:
            return execute_program(program, max_instructions=20000), None
        return run(program), None
    except ExecutionError as error:
        return None, type(error)
    finally:
        if previous is None:
            del os.environ[BLOCK_EXEC_ENV]
        else:
            os.environ[BLOCK_EXEC_ENV] = previous


@settings(max_examples=120, deadline=None)
@given(program_draw)
def test_block_and_handler_modes_identical(draw):
    program = build_program(draw)
    block, block_err = run_mode(program, "1")
    handler, handler_err = run_mode(program, "0")
    assert block_err == handler_err
    if block is None:
        return  # both trapped with the same error type
    assert block.to_payload() == handler.to_payload()
    # final architectural state, compared directly (not via the payload)
    assert list(block.final_xregs) == list(handler.final_xregs)
    assert [repr(v) for v in block.final_fregs] == [
        repr(v) for v in handler.final_fregs]  # repr: NaN/−0.0 bit-safe
    assert block.final_next_pc == handler.final_next_pc
    assert block.halted == handler.halted
    assert block.memory._words == handler.memory._words
    assert (block.uop_count, block.load_count, block.store_count) == (
        handler.uop_count, handler.load_count, handler.store_count)


#: instruction cap of the faulty runs (a corrupted loop counter runs away)
FAULTY_CAP = 3000

fault_draw = st.builds(
    TransientFault,
    site=st.sampled_from(sorted(EXECUTION_SITES, key=lambda s: s.value)),
    seq=st.integers(min_value=0, max_value=80),
    bit=st.integers(min_value=0, max_value=63),
    memop_index=st.integers(min_value=0, max_value=1),
)


def faulty_run(fault, golden=None):
    """A runner for :func:`run_mode`: the faulty run, forked from
    ``golden`` when given, plus its activation list."""
    def run(program):
        injector = FaultInjector([fault])
        if golden is None:
            trace = execute_program(program, fault_injector=injector,
                                    max_instructions=FAULTY_CAP)
        else:
            trace = execute_forked(golden, injector,
                                   max_instructions=FAULTY_CAP)
        return trace.to_payload(), injector.activations
    return run


@settings(max_examples=100, deadline=None)
@given(program_draw, fault_draw)
def test_faulty_runs_identical_across_modes_and_paths(draw, fault):
    # blocks run every row after the fault's seq, so a corrupted base
    # address or the misaligned edge traps inside a block, after the
    # block's stores: the committed prefix must still match the handlers
    program = build_program(draw)
    reference, error = run_mode(program, "0", faulty_run(fault))
    assert error is None  # an injected run ends crashed, never raises
    assert run_mode(program, "1", faulty_run(fault)) == (reference, None)
    golden, _ = run_mode(program, "0")
    if golden is None:
        return  # the fault-free run traps: nothing to fork from
    for mode in ("0", "1"):
        assert run_mode(program, mode, faulty_run(fault, golden)) == (
            reference, None)
