"""Golden tests for the functional executor's instruction semantics."""

import math

import pytest

from repro.common.errors import ExecutionError
from repro.isa.blocks import BLOCK_EXEC_ENV
from repro.isa.executor import LOAD, NONDET, STORE, Machine, execute_program
from repro.isa.instructions import MASK64, Opcode, uop_count
from repro.isa.memory_image import float_to_bits
from repro.isa.program import ProgramBuilder

#: a quiet NaN carrying payload 1 (the default NaN's payload is 0)
_NAN_PAYLOAD = 0x7FF8000000000001


def run_ops(emit_fn, data=None):
    """Build a tiny program via emit_fn(builder), run it, return machine."""
    b = ProgramBuilder("t")
    if data:
        for addr, value in data.items():
            b.put_word(addr, value)
    emit_fn(b)
    b.emit(Opcode.HALT)
    program = b.build()
    machine = Machine(program)
    while not machine.halted:
        machine.step()
    return machine


class TestIntArithmetic:
    def test_add_wraps(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=MASK64),
            b.emit(Opcode.ADDI, rd=2, rs1=1, imm=1),
        ])
        assert m.xregs[2] == 0

    def test_sub_underflow(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=0),
            b.emit(Opcode.ADDI, rd=2, rs1=1, imm=-1),
        ])
        assert m.xregs[2] == MASK64

    def test_logic_ops(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=0b1100),
            b.emit(Opcode.MOVI, rd=2, imm=0b1010),
            b.emit(Opcode.AND, rd=3, rs1=1, rs2=2),
            b.emit(Opcode.OR, rd=4, rs1=1, rs2=2),
            b.emit(Opcode.XOR, rd=5, rs1=1, rs2=2),
        ])
        assert m.xregs[3] == 0b1000
        assert m.xregs[4] == 0b1110
        assert m.xregs[5] == 0b0110

    def test_shifts(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=-8),
            b.emit(Opcode.SRAI, rd=2, rs1=1, imm=1),   # arithmetic
            b.emit(Opcode.SRLI, rd=3, rs1=1, imm=1),   # logical
            b.emit(Opcode.SLLI, rd=4, rs1=1, imm=1),
        ])
        assert m.xregs[2] == ((-4) & MASK64)
        assert m.xregs[3] == ((-8) & MASK64) >> 1
        assert m.xregs[4] == ((-16) & MASK64)

    def test_shift_amount_masked_to_6_bits(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=1),
            b.emit(Opcode.MOVI, rd=2, imm=65),
            b.emit(Opcode.SLL, rd=3, rs1=1, rs2=2),
        ])
        assert m.xregs[3] == 2  # 65 & 63 == 1

    def test_slt_signed_vs_unsigned(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=-1),
            b.emit(Opcode.MOVI, rd=2, imm=1),
            b.emit(Opcode.SLT, rd=3, rs1=1, rs2=2),
            b.emit(Opcode.SLTU, rd=4, rs1=1, rs2=2),
        ])
        assert m.xregs[3] == 1  # -1 < 1 signed
        assert m.xregs[4] == 0  # 2^64-1 > 1 unsigned

    def test_mul_wraps(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=1 << 62),
            b.emit(Opcode.MOVI, rd=2, imm=8),
            b.emit(Opcode.MUL, rd=3, rs1=1, rs2=2),
        ])
        assert m.xregs[3] == ((1 << 65) & MASK64)

    def test_div_semantics(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=-7),
            b.emit(Opcode.MOVI, rd=2, imm=2),
            b.emit(Opcode.DIV, rd=3, rs1=1, rs2=2),
            b.emit(Opcode.REM, rd=4, rs1=1, rs2=2),
        ])
        assert m.xregs[3] == ((-3) & MASK64)  # truncation toward zero
        assert m.xregs[4] == ((-1) & MASK64)

    def test_div_by_zero(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=42),
            b.emit(Opcode.MOVI, rd=2, imm=0),
            b.emit(Opcode.DIV, rd=3, rs1=1, rs2=2),
            b.emit(Opcode.REM, rd=4, rs1=1, rs2=2),
        ])
        assert m.xregs[3] == MASK64   # RISC-V: all ones
        assert m.xregs[4] == 42       # RISC-V: dividend

    def test_div_overflow(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=-(1 << 63)),
            b.emit(Opcode.MOVI, rd=2, imm=-1),
            b.emit(Opcode.DIV, rd=3, rs1=1, rs2=2),
            b.emit(Opcode.REM, rd=4, rs1=1, rs2=2),
        ])
        assert m.xregs[3] == (1 << 63)
        assert m.xregs[4] == 0

    def test_x0_hardwired_zero(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=0, imm=99),
            b.emit(Opcode.ADDI, rd=1, rs1=0, imm=5),
        ])
        assert m.xregs[0] == 0
        assert m.xregs[1] == 5


class TestFloatingPoint:
    def test_arith(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.FMOVI, rd=1, imm=3.0),
            b.emit(Opcode.FMOVI, rd=2, imm=2.0),
            b.emit(Opcode.FADD, rd=3, rs1=1, rs2=2),
            b.emit(Opcode.FSUB, rd=4, rs1=1, rs2=2),
            b.emit(Opcode.FMUL, rd=5, rs1=1, rs2=2),
            b.emit(Opcode.FDIV, rd=6, rs1=1, rs2=2),
        ])
        assert m.fregs[3] == 5.0
        assert m.fregs[4] == 1.0
        assert m.fregs[5] == 6.0
        assert m.fregs[6] == 1.5

    def test_fmadd(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.FMOVI, rd=1, imm=2.0),
            b.emit(Opcode.FMOVI, rd=2, imm=3.0),
            b.emit(Opcode.FMOVI, rd=3, imm=4.0),
            b.emit(Opcode.FMADD, rd=4, rs1=1, rs2=2, rs3=3),
        ])
        assert m.fregs[4] == 10.0

    def test_fdiv_by_zero_ieee(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.FMOVI, rd=1, imm=1.0),
            b.emit(Opcode.FMOVI, rd=2, imm=0.0),
            b.emit(Opcode.FDIV, rd=3, rs1=1, rs2=2),
            b.emit(Opcode.FDIV, rd=4, rs1=2, rs2=2),
        ])
        assert m.fregs[3] == math.inf
        assert math.isnan(m.fregs[4])

    def test_fsqrt(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.FMOVI, rd=1, imm=9.0),
            b.emit(Opcode.FSQRT, rd=2, rs1=1),
            b.emit(Opcode.FMOVI, rd=3, imm=-1.0),
            b.emit(Opcode.FSQRT, rd=4, rs1=3),
        ])
        assert m.fregs[2] == 3.0
        assert math.isnan(m.fregs[4])

    def test_fmin_fmax(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.FMOVI, rd=1, imm=1.0),
            b.emit(Opcode.FMOVI, rd=2, imm=2.0),
            b.emit(Opcode.FMIN, rd=3, rs1=1, rs2=2),
            b.emit(Opcode.FMAX, rd=4, rs1=1, rs2=2),
        ])
        assert m.fregs[3] == 1.0
        assert m.fregs[4] == 2.0

    def test_fneg_fabs_fmov(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.FMOVI, rd=1, imm=-2.5),
            b.emit(Opcode.FNEG, rd=2, rs1=1),
            b.emit(Opcode.FABS, rd=3, rs1=1),
            b.emit(Opcode.FMOV, rd=4, rs1=1),
        ])
        assert m.fregs[2] == 2.5
        assert m.fregs[3] == 2.5
        assert m.fregs[4] == -2.5

    def test_conversions(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=-3),
            b.emit(Opcode.FCVT_I2F, rd=1, rs1=1),
            b.emit(Opcode.FMOVI, rd=2, imm=7.9),
            b.emit(Opcode.FCVT_F2I, rd=2, rs1=2),
        ])
        assert m.fregs[1] == -3.0
        assert m.xregs[2] == 7  # truncation

    def test_f2i_saturates(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.FMOVI, rd=1, imm=1e300),
            b.emit(Opcode.FCVT_F2I, rd=1, rs1=1),
        ])
        assert m.xregs[1] == (1 << 63) - 1

    def test_fcmp(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.FMOVI, rd=1, imm=1.0),
            b.emit(Opcode.FMOVI, rd=2, imm=2.0),
            b.emit(Opcode.FCMPLT, rd=1, rs1=1, rs2=2),
            b.emit(Opcode.FCMPLE, rd=2, rs1=2, rs2=2),
            b.emit(Opcode.FCMPEQ, rd=3, rs1=1, rs2=2),
        ])
        assert m.xregs[1] == 1
        assert m.xregs[2] == 1
        assert m.xregs[3] == 0

    def test_nan_results_independent_of_warm_up(self, monkeypatch):
        """Two NaN operands with different payloads: every FP result is
        the one default NaN, on the first run and once CPython has
        specialised the arithmetic (after ~8 runs of a code object), on
        the handler path and in compiled blocks alike."""
        b = ProgramBuilder("nan-payloads")
        base = b.alloc_words(2, [0x7FF8000000000001, 0x7FF8000000000002])
        b.emit(Opcode.MOVI, rd=1, imm=base)
        b.emit(Opcode.FLD, rd=0, rs1=1, imm=0)
        b.emit(Opcode.FLD, rd=1, rs1=1, imm=8)
        for rd, op in enumerate((Opcode.FADD, Opcode.FSUB, Opcode.FMUL,
                                 Opcode.FDIV, Opcode.FMIN, Opcode.FMAX),
                                start=2):
            b.emit(op, rd=rd, rs1=0, rs2=1)
        b.emit(Opcode.FMADD, rd=8, rs1=0, rs2=1, rs3=0)
        b.emit(Opcode.HALT)
        program = b.build()
        results = set()
        for mode in ("0", "1"):
            monkeypatch.setenv(BLOCK_EXEC_ENV, mode)
            for _ in range(12):
                fregs = execute_program(program).final_fregs
                results.add(tuple(float_to_bits(v) for v in fregs[2:9]))
        assert results == {(float_to_bits(math.nan),) * 7}

    @pytest.mark.parametrize("mode", ["0", "1"], ids=["handlers", "blocks"])
    @pytest.mark.parametrize("op, operands", [
        (Opcode.FADD, (_NAN_PAYLOAD, 1.0)),
        (Opcode.FSUB, (1.0, _NAN_PAYLOAD)),
        (Opcode.FMUL, (_NAN_PAYLOAD, 2.0)),
        (Opcode.FDIV, (2.0, _NAN_PAYLOAD)),
        (Opcode.FMADD, (1.0, 2.0, _NAN_PAYLOAD)),
        (Opcode.FADD, (math.inf, -math.inf)),
        (Opcode.FMUL, (0.0, math.inf)),
        (Opcode.FDIV, (math.inf, math.inf)),
        (Opcode.FMADD, (0.0, math.inf, 1.0)),
    ], ids=["fadd-nan-operand", "fsub-nan-operand", "fmul-nan-operand",
            "fdiv-nan-operand", "fmadd-nan-addend", "fadd-inf-minus-inf",
            "fmul-zero-times-inf", "fdiv-inf-over-inf",
            "fmadd-zero-times-inf"])
    def test_nan_result_is_default_nan(self, op, operands, mode,
                                       monkeypatch):
        """A NaN propagated from one operand keeps no payload, and an
        invalid operation (which x86 answers with a negative NaN) writes
        the same positive default NaN, in the register file and in the
        trace's writeback column."""
        b = ProgramBuilder("nan-result")
        words = [v if isinstance(v, int) else float_to_bits(v)
                 for v in operands]
        base = b.alloc_words(len(words), words)
        b.emit(Opcode.MOVI, rd=1, imm=base)
        for rd in range(len(words)):
            b.emit(Opcode.FLD, rd=rd, rs1=1, imm=8 * rd)
        b.emit(op, rd=4, rs1=0, rs2=1, rs3=2 if op is Opcode.FMADD else None)
        b.emit(Opcode.HALT)
        monkeypatch.setenv(BLOCK_EXEC_ENV, mode)
        trace = execute_program(b.build())
        ((is_fp, rd, value),) = trace.dsts[-2]
        assert (is_fp, rd) == (True, 4)
        assert float_to_bits(value) == float_to_bits(math.nan)
        assert float_to_bits(trace.final_fregs[4]) == float_to_bits(math.nan)


class TestMemoryOps:
    def test_ld_st(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=0x1000),
            b.emit(Opcode.MOVI, rd=2, imm=77),
            b.emit(Opcode.ST, rs2=2, rs1=1, imm=8),
            b.emit(Opcode.LD, rd=3, rs1=1, imm=8),
        ])
        assert m.xregs[3] == 77
        assert m.memory.load(0x1008) == 77

    def test_ldp_stp(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=0x2000),
            b.emit(Opcode.MOVI, rd=2, imm=11),
            b.emit(Opcode.MOVI, rd=3, imm=22),
            b.emit(Opcode.STP, rs2=2, rs3=3, rs1=1, imm=0),
            b.emit(Opcode.LDP, rd=4, rd2=5, rs1=1, imm=0),
        ])
        assert (m.xregs[4], m.xregs[5]) == (11, 22)
        assert m.memory.load(0x2000) == 11
        assert m.memory.load(0x2008) == 22

    def test_fld_fst_roundtrip(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.MOVI, rd=1, imm=0x3000),
            b.emit(Opcode.FMOVI, rd=1, imm=2.5),
            b.emit(Opcode.FST, rs2=1, rs1=1, imm=0),
            b.emit(Opcode.FLD, rd=2, rs1=1, imm=0),
        ])
        assert m.fregs[2] == 2.5
        assert m.memory.load(0x3000) == float_to_bits(2.5)

    def test_initial_data(self):
        m = run_ops(
            lambda b: [
                b.emit(Opcode.MOVI, rd=1, imm=0x4000),
                b.emit(Opcode.LD, rd=2, rs1=1, imm=0),
            ],
            data={0x4000: 123},
        )
        assert m.xregs[2] == 123


class TestControlFlow:
    def test_branch_taken_and_not(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.MOVI, rd=1, imm=5)
        b.emit(Opcode.MOVI, rd=2, imm=5)
        b.emit(Opcode.BEQ, rs1=1, rs2=2, target="equal")
        b.emit(Opcode.MOVI, rd=3, imm=111)   # skipped
        b.label("equal")
        b.emit(Opcode.MOVI, rd=4, imm=222)
        b.emit(Opcode.HALT)
        m = Machine(b.build())
        while not m.halted:
            m.step()
        assert m.xregs[3] == 0
        assert m.xregs[4] == 222

    @pytest.mark.parametrize("op,a,b_,expect", [
        (Opcode.BEQ, 1, 1, True), (Opcode.BEQ, 1, 2, False),
        (Opcode.BNE, 1, 2, True), (Opcode.BNE, 1, 1, False),
        (Opcode.BLT, -1, 1, True), (Opcode.BLT, 1, -1, False),
        (Opcode.BGE, 1, -1, True), (Opcode.BGE, -1, 1, False),
        (Opcode.BLTU, 1, -1, True),   # unsigned: -1 is huge
        (Opcode.BGEU, -1, 1, True),
    ])
    def test_branch_conditions(self, op, a, b_, expect):
        b = ProgramBuilder("t")
        b.emit(Opcode.MOVI, rd=1, imm=a)
        b.emit(Opcode.MOVI, rd=2, imm=b_)
        b.emit(op, rs1=1, rs2=2, target="taken")
        b.emit(Opcode.MOVI, rd=3, imm=1)
        b.label("taken")
        b.emit(Opcode.HALT)
        m = Machine(b.build())
        while not m.halted:
            m.step()
        assert (m.xregs[3] == 0) == expect

    def test_jal_jalr_link(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.JAL, rd=1, target="func")      # pc=0, link=1
        b.emit(Opcode.MOVI, rd=2, imm=42)            # pc=1 (return here)
        b.emit(Opcode.HALT)                          # pc=2
        b.label("func")
        b.emit(Opcode.MOVI, rd=3, imm=7)             # pc=3
        b.emit(Opcode.JALR, rd=0, rs1=1, imm=0)      # return
        m = Machine(b.build())
        while not m.halted:
            m.step()
        assert m.xregs[1] == 1   # link register
        assert m.xregs[2] == 42  # returned and executed
        assert m.xregs[3] == 7

    def test_j_unconditional(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.J, target="end")
        b.emit(Opcode.MOVI, rd=1, imm=1)
        b.label("end")
        b.emit(Opcode.HALT)
        m = Machine(b.build())
        while not m.halted:
            m.step()
        assert m.xregs[1] == 0


class TestNondet:
    def test_rdcycle_counts(self):
        m = run_ops(lambda b: [
            b.emit(Opcode.NOP),
            b.emit(Opcode.RDCYCLE, rd=1),
        ])
        assert m.xregs[1] == 1  # one instruction executed before it

    def test_rdrand_deterministic_per_position(self):
        a = run_ops(lambda b: b.emit(Opcode.RDRAND, rd=1))
        b_ = run_ops(lambda b: b.emit(Opcode.RDRAND, rd=1))
        assert a.xregs[1] == b_.xregs[1]


class TestTraceRecords:
    def test_trace_contents(self, rmw_trace):
        assert rmw_trace.halted
        assert rmw_trace.load_count == 400
        assert rmw_trace.store_count == 400
        # every record is consistent
        assert set(rmw_trace.mem_kind) <= {LOAD, STORE, NONDET}

    def test_seq_is_dense(self, rmw_trace):
        """``seq`` is the row index: each per-row column holds exactly
        one entry per committed instruction (3 setup, 8 per iteration,
        and the halt)."""
        rows = len(rmw_trace)
        assert rows == 3 + 8 * 400 + 1
        assert len(rmw_trace.dsts) == len(rmw_trace.takens) == rows
        assert len(rmw_trace.mem_off) == rows + 1
        static = rmw_trace.program.instructions
        assert rmw_trace.uop_count == sum(uop_count(static[pc].op)
                                          for pc in rmw_trace.pcs)

    def test_next_pc_chains(self, rmw_trace):
        """Each row's successor is its fall-through pc unless a taken
        branch redirects it to the branch target; the last row's
        successor is ``final_next_pc``."""
        static = rmw_trace.program.instructions
        last = len(rmw_trace) - 1
        for seq in range(last):
            pc = rmw_trace.pcs[seq]
            expected = (static[pc].target if rmw_trace.takens[seq] == 1
                        else pc + 1)
            assert rmw_trace.next_pc_of(seq) == expected
        assert rmw_trace.next_pc_of(last) == rmw_trace.final_next_pc

    def test_x0_writes_not_recorded(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.MOVI, rd=0, imm=5)
        b.emit(Opcode.HALT)
        trace = execute_program(b.build())
        assert trace.dsts[0] == ()

    def test_uop_count(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.MOVI, rd=1, imm=0x1000)
        b.emit(Opcode.LDP, rd=2, rd2=3, rs1=1, imm=0)
        b.emit(Opcode.HALT)
        trace = execute_program(b.build())
        assert trace.uop_count == 4  # MOVI + 2 + HALT


class TestGuards:
    def test_runaway_protection(self):
        b = ProgramBuilder("t")
        b.label("spin")
        b.emit(Opcode.J, target="spin")
        b.emit(Opcode.HALT)
        with pytest.raises(ExecutionError):
            execute_program(b.build(), max_instructions=1000)

    def test_step_after_halt_rejected(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.HALT)
        m = Machine(b.build())
        m.step()
        with pytest.raises(ExecutionError):
            m.step()

    def test_set_registers_shape_checked(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.HALT)
        m = Machine(b.build())
        with pytest.raises(ExecutionError):
            m.set_registers([0] * 3, [0.0] * 32)
