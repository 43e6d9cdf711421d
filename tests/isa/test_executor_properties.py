"""Property-based tests on the executor (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.isa.executor import Machine, execute_program
from repro.isa.instructions import MASK64, Opcode, to_signed
from repro.isa.program import ProgramBuilder

u64 = st.integers(min_value=0, max_value=MASK64)


def eval_binop(op, a, b):
    builder = ProgramBuilder("prop")
    builder.emit(Opcode.MOVI, rd=1, imm=a)
    builder.emit(Opcode.MOVI, rd=2, imm=b)
    builder.emit(op, rd=3, rs1=1, rs2=2)
    builder.emit(Opcode.HALT)
    machine = Machine(builder.build())
    while not machine.halted:
        machine.step()
    return machine.xregs[3]


class TestAluAlgebra:
    @given(u64, u64)
    def test_add_commutative(self, a, b):
        assert eval_binop(Opcode.ADD, a, b) == eval_binop(Opcode.ADD, b, a)

    @given(u64, u64)
    def test_add_matches_python(self, a, b):
        assert eval_binop(Opcode.ADD, a, b) == (a + b) & MASK64

    @given(u64, u64)
    def test_sub_inverse_of_add(self, a, b):
        total = eval_binop(Opcode.ADD, a, b)
        assert eval_binop(Opcode.SUB, total, b) == a

    @given(u64, u64)
    def test_xor_self_inverse(self, a, b):
        x = eval_binop(Opcode.XOR, a, b)
        assert eval_binop(Opcode.XOR, x, b) == a

    @given(u64)
    def test_and_or_identities(self, a):
        assert eval_binop(Opcode.AND, a, MASK64) == a
        assert eval_binop(Opcode.OR, a, 0) == a

    @given(u64, u64)
    def test_mul_matches_python(self, a, b):
        assert eval_binop(Opcode.MUL, a, b) == (a * b) & MASK64

    @given(u64, st.integers(min_value=1, max_value=MASK64))
    def test_div_rem_reconstruct(self, a, b):
        q = to_signed(eval_binop(Opcode.DIV, a, b))
        r = to_signed(eval_binop(Opcode.REM, a, b))
        sa, sb = to_signed(a), to_signed(b)
        if not (sa == -(1 << 63) and sb == -1):
            assert q * sb + r == sa

    @given(u64, u64)
    def test_slt_consistent_with_branch(self, a, b):
        """SLT and BLT must agree — the checker relies on identical
        semantics between arithmetic and control comparisons."""
        slt = eval_binop(Opcode.SLT, a, b)
        builder = ProgramBuilder("prop")
        builder.emit(Opcode.MOVI, rd=1, imm=a)
        builder.emit(Opcode.MOVI, rd=2, imm=b)
        builder.emit(Opcode.BLT, rs1=1, rs2=2, target="taken")
        builder.emit(Opcode.MOVI, rd=3, imm=1)
        builder.label("taken")
        builder.emit(Opcode.HALT)
        machine = Machine(builder.build())
        while not machine.halted:
            machine.step()
        branch_taken = machine.xregs[3] == 0
        assert branch_taken == bool(slt)


class TestDeterminism:
    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=2, max_value=16))
    @settings(max_examples=25, deadline=None)
    def test_execution_is_deterministic(self, iterations, array_words):
        from tests.conftest import build_rmw_loop
        program = build_rmw_loop(iterations=iterations,
                                 array_words=array_words)
        t1 = execute_program(program)
        t2 = execute_program(program)
        assert t1.final_xregs == t2.final_xregs
        assert len(t1) == len(t2)
        assert list(t1.pcs) == list(t2.pcs)
        assert t1.dsts == t2.dsts
        for column in ("mem_off", "mem_kind", "mem_addr", "mem_value"):
            assert list(getattr(t1, column)) == list(getattr(t2, column))
