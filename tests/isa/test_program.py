"""Tests for Program and ProgramBuilder."""

import pytest

from repro.common.errors import AssemblyError, MemoryAccessError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.memory_image import MemoryImage, float_to_bits
from repro.isa.program import Program, ProgramBuilder, signature


class TestBuilder:
    def test_forward_reference(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.J, target="later")
        b.emit(Opcode.NOP)
        b.label("later")
        b.emit(Opcode.HALT)
        p = b.build()
        assert p.instructions[0].target == 2

    def test_undefined_forward_reference(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.J, target="nowhere")
        b.emit(Opcode.HALT)
        with pytest.raises(AssemblyError, match="undefined label"):
            b.build()

    def test_duplicate_label(self):
        b = ProgramBuilder("t")
        b.label("x")
        with pytest.raises(AssemblyError, match="duplicate"):
            b.label("x")

    def test_empty_program_rejected(self):
        with pytest.raises(AssemblyError):
            ProgramBuilder("t").build()

    def test_entry_label(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.NOP)
        b.label("start")
        b.emit(Opcode.HALT)
        assert b.build(entry="start").entry == 1

    def test_undefined_entry(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.HALT)
        with pytest.raises(AssemblyError):
            b.build(entry="missing")

    def test_operand_checking_missing(self):
        b = ProgramBuilder("t")
        with pytest.raises(AssemblyError, match="requires operand"):
            b.emit(Opcode.ADD, rd=1, rs1=2)  # missing rs2

    def test_operand_checking_extra(self):
        b = ProgramBuilder("t")
        with pytest.raises(AssemblyError, match="does not take"):
            b.emit(Opcode.NOP, rd=1)

    def test_register_range(self):
        b = ProgramBuilder("t")
        with pytest.raises(AssemblyError, match="out of range"):
            b.emit(Opcode.ADD, rd=40, rs1=1, rs2=2)

    def test_branch_target_validated(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.BEQ, rs1=0, rs2=0, target=999)
        with pytest.raises(AssemblyError, match="invalid target"):
            b.build()

    def test_emit_returns_index(self):
        b = ProgramBuilder("t")
        assert b.emit(Opcode.NOP) == 0
        assert b.emit(Opcode.HALT) == 1


class TestDataSegment:
    def test_alloc_words_sequential(self):
        b = ProgramBuilder("t")
        first = b.alloc_words(4)
        second = b.alloc_words(2)
        assert second == first + 32

    def test_alloc_with_values(self):
        b = ProgramBuilder("t")
        base = b.alloc_words(3, [10, 20, 30])
        b.emit(Opcode.HALT)
        p = b.build()
        assert p.data[base] == 10
        assert p.data[base + 16] == 30

    def test_alloc_floats(self):
        b = ProgramBuilder("t")
        base = b.alloc_floats([1.5, -2.5])
        b.emit(Opcode.HALT)
        p = b.build()
        assert p.data[base] == float_to_bits(1.5)
        assert p.data[base + 8] == float_to_bits(-2.5)

    def test_put_word_masks(self):
        b = ProgramBuilder("t")
        b.put_word(0x100, 1 << 64)
        b.emit(Opcode.HALT)
        assert b.build().data[0x100] == 0

    def test_initial_memory(self):
        b = ProgramBuilder("t")
        b.put_word(0x100, 5)
        b.emit(Opcode.HALT)
        mem = b.build().initial_memory()
        assert mem.load(0x100) == 5


def data_program(data: dict) -> Program:
    return Program("data", (Instruction(Opcode.HALT),), data=data)


class TestInitialMemory:
    """The data image is built once per program; each call gets a copy."""

    def test_second_call_makes_no_store(self, monkeypatch):
        stores = []
        real = MemoryImage.store

        def spy(self, addr, value):
            stores.append(addr)
            real(self, addr, value)

        monkeypatch.setattr(MemoryImage, "store", spy)
        program = data_program({0x100: 1, 0x108: 2, 0x200: 3})
        first = program.initial_memory()
        assert sorted(stores) == [0x100, 0x108, 0x200]
        stores.clear()
        second = program.initial_memory()
        assert stores == []
        assert dict(second.items()) == dict(first.items()) == program.data

    def test_calls_return_independent_images(self):
        program = data_program({0x100: 1, 0x108: 2})
        first = program.initial_memory()
        first.store(0x100, 99)
        first.store(0x300, 7)
        second = program.initial_memory()
        assert second is not first
        assert second.load(0x100) == 1 and 0x300 not in second
        assert program.data == {0x100: 1, 0x108: 2}
        second.store(0x108, 55)
        assert first.load(0x108) == 2
        assert program.initial_memory().load(0x108) == 2

    @pytest.mark.parametrize("addr", [0x101, -8])
    def test_bad_address_raises_on_every_call(self, addr):
        program = data_program({0x100: 1, addr: 2})
        for _ in range(3):
            with pytest.raises(MemoryAccessError):
                program.initial_memory()


class TestProgram:
    def test_identity_semantics(self):
        b1, b2 = ProgramBuilder("a"), ProgramBuilder("a")
        b1.emit(Opcode.HALT)
        b2.emit(Opcode.HALT)
        p1, p2 = b1.build(), b2.build()
        assert p1 != p2          # identity equality
        assert p1 == p1
        assert hash(p1) != hash(p2) or p1 is not p2

    def test_fetch_bounds(self):
        b = ProgramBuilder("t")
        b.emit(Opcode.HALT)
        p = b.build()
        with pytest.raises(AssemblyError):
            p.fetch(5)

    def test_signature_table_complete(self):
        for op in Opcode:
            assert isinstance(signature(op), str)
