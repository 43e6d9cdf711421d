"""Tests for the text assembler."""

import pytest

from repro.common.errors import AssemblyError
from repro.isa.assembler import assemble, field_space
from repro.isa.executor import Machine, execute_program
from repro.isa.instructions import Opcode
from repro.isa.memory_image import bits_to_float


def run(source):
    program = assemble(source)
    machine = Machine(program)
    while not machine.halted:
        machine.step()
    return machine


class TestBasicSyntax:
    def test_minimal(self):
        p = assemble("HALT")
        assert len(p) == 1
        assert p.instructions[0].op is Opcode.HALT

    def test_comments_and_blanks(self):
        p = assemble("""
            # full-line comment
            MOVI x1, 5   ; trailing comment
            HALT
        """)
        assert len(p) == 2

    def test_name_directive(self):
        p = assemble(".name myprog\nHALT")
        assert p.name == "myprog"

    def test_registers_and_immediates(self):
        m = run("""
            MOVI x1, 0x10
            ADDI x2, x1, -6
            HALT
        """)
        assert m.xregs[2] == 10

    def test_memref_form(self):
        m = run("""
            .data
            .word 0x1000 = 9
            .text
            MOVI x1, 0x1000
            LD x2, 0(x1)
            ST x2, 8(x1)
            HALT
        """)
        assert m.xregs[2] == 9
        assert m.memory.load(0x1008) == 9

    def test_pair_ops(self):
        m = run("""
            .data
            .word 0x2000 = 3 4
            .text
            MOVI x1, 0x2000
            LDP x2, x3, 0(x1)
            STP x3, x2, 16(x1)
            HALT
        """)
        assert (m.xregs[2], m.xregs[3]) == (3, 4)
        assert m.memory.load(0x2010) == 4
        assert m.memory.load(0x2018) == 3

    def test_float_directive_and_ops(self):
        m = run("""
            .data
            .float 0x3000 = 1.5 2.5
            .text
            MOVI x1, 0x3000
            FLD f1, 0(x1)
            FLD f2, 8(x1)
            FADD f3, f1, f2
            FST f3, 16(x1)
            HALT
        """)
        assert m.fregs[3] == 4.0
        assert bits_to_float(m.memory.load(0x3010)) == 4.0

    def test_fmovi_float_immediate(self):
        m = run("FMOVI f1, 3.25\nHALT")
        assert m.fregs[1] == 3.25

    def test_fmadd_four_operands(self):
        m = run("""
            FMOVI f1, 2.0
            FMOVI f2, 3.0
            FMOVI f3, 1.0
            FMADD f4, f1, f2, f3
            HALT
        """)
        assert m.fregs[4] == 7.0

    def test_labels_and_loop(self):
        m = run("""
            MOVI x1, 0
        loop:
            ADDI x1, x1, 1
            SLTI x2, x1, 5
            BNE x2, x0, loop
            HALT
        """)
        assert m.xregs[1] == 5

    def test_jal_jalr(self):
        m = run("""
            JAL x1, func
            MOVI x2, 9
            HALT
        func:
            MOVI x3, 7
            JALR x0, x1, 0
        """)
        assert m.xregs[2] == 9
        assert m.xregs[3] == 7

    def test_numeric_branch_target(self):
        p = assemble("MOVI x1, 1\nBEQ x0, x0, 0\nHALT")
        assert p.instructions[1].target == 0

    def test_entry_is_zero(self):
        assert assemble("NOP\nHALT").entry == 0


class TestErrors:
    @pytest.mark.parametrize("source,fragment", [
        ("BOGUS x1, x2", "unknown opcode"),
        ("ADD x1, x2", "expects 3 operands"),
        ("ADD x1, x2, x3, x4", "expects 3 operands"),
        ("MOVI x99, 1", "out of range"),
        ("ADD x1, f2, x3", "expected 'x'-register"),
        ("FADD f1, x2, f3", "expected 'f'-register"),
        ("LD x1, x2", "expected offset(base)"),
        ("MOVI x1, notanumber", "bad integer"),
        ("FMOVI f1, nan-ish", "bad float"),
        ("BEQ x1, x2, nowhere\nHALT", "undefined label"),
        (".bogus directive", "unknown directive"),
        (".data\n.word 0x10\n.text\nHALT", "expected 'addr = values'"),
        (".data\nMOVI x1, 1", "outside .text"),
        ("dup:\ndup:\nHALT", "duplicate label"),
    ])
    def test_error_cases(self, source, fragment):
        with pytest.raises(AssemblyError) as excinfo:
            assemble(source)
        assert fragment in str(excinfo.value)

    def test_empty_program_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("# nothing here")


class TestFieldSpace:
    def test_int_ops_use_x(self):
        assert field_space(Opcode.ADD, "d") == "x"
        assert field_space(Opcode.LD, "d") == "x"

    def test_fp_ops_use_f(self):
        assert field_space(Opcode.FADD, "d") == "f"
        assert field_space(Opcode.FMADD, "c") == "f"

    def test_fld_mixed(self):
        assert field_space(Opcode.FLD, "d") == "f"
        assert field_space(Opcode.FLD, "a") == "x"

    def test_fst_mixed(self):
        assert field_space(Opcode.FST, "b") == "f"
        assert field_space(Opcode.FST, "a") == "x"

    def test_conversions_mixed(self):
        assert field_space(Opcode.FCVT_I2F, "d") == "f"
        assert field_space(Opcode.FCVT_I2F, "a") == "x"
        assert field_space(Opcode.FCVT_F2I, "d") == "x"
        assert field_space(Opcode.FCVT_F2I, "a") == "f"

    def test_compares_write_int(self):
        assert field_space(Opcode.FCMPLT, "d") == "x"
        assert field_space(Opcode.FCMPLT, "a") == "f"


class TestEquivalenceWithBuilder:
    def test_same_execution(self):
        source = """
            .data
            .word 0x1000 = 1 2 3 4
            .text
            MOVI x1, 0x1000
            MOVI x2, 0
            MOVI x3, 0
        loop:
            LD x4, 0(x1)
            ADD x2, x2, x4
            ADDI x1, x1, 8
            ADDI x3, x3, 1
            SLTI x5, x3, 4
            BNE x5, x0, loop
            HALT
        """
        from repro.isa.program import ProgramBuilder
        asm_trace = execute_program(assemble(source))

        b = ProgramBuilder("equiv")
        b.put_word(0x1000, 1)
        b.put_word(0x1008, 2)
        b.put_word(0x1010, 3)
        b.put_word(0x1018, 4)
        b.emit(Opcode.MOVI, rd=1, imm=0x1000)
        b.emit(Opcode.MOVI, rd=2, imm=0)
        b.emit(Opcode.MOVI, rd=3, imm=0)
        b.label("loop")
        b.emit(Opcode.LD, rd=4, rs1=1, imm=0)
        b.emit(Opcode.ADD, rd=2, rs1=2, rs2=4)
        b.emit(Opcode.ADDI, rd=1, rs1=1, imm=8)
        b.emit(Opcode.ADDI, rd=3, rs1=3, imm=1)
        b.emit(Opcode.SLTI, rd=5, rs1=3, imm=4)
        b.emit(Opcode.BNE, rs1=5, rs2=0, target="loop")
        b.emit(Opcode.HALT)
        built_trace = execute_program(b.build())

        assert asm_trace.final_xregs == built_trace.final_xregs
        assert len(asm_trace) == len(built_trace)
