"""Tests for the fault models and injector."""

import pytest

from repro.common.errors import FaultSpecError
from repro.detection.faults import (
    EXECUTION_SITES,
    FaultInjector,
    FaultSite,
    HardFault,
    TransientFault,
    system_faults,
)
from repro.isa.executor import LOAD, execute_program
from repro.isa.instructions import Opcode

from tests.conftest import build_rmw_loop


@pytest.fixture(scope="module")
def program():
    return build_rmw_loop(iterations=100)


@pytest.fixture(scope="module")
def clean(program):
    return execute_program(program)


def inject(program, fault):
    injector = FaultInjector([fault])
    trace = execute_program(program, fault_injector=injector)
    return injector, trace


def ops(trace):
    """The opcode of every row of ``trace``."""
    static = trace.program.instructions
    return [static[pc].op for pc in trace.pcs]


def find_seq(clean, op, skip=20):
    found = 0
    for seq, row_op in enumerate(ops(clean)):
        if row_op is op:
            found += 1
            if found > skip:
                return seq
    raise AssertionError(f"no {op} in trace")


def first_mem(trace, seq):
    """``(kind, addr, value, used)`` of row ``seq``'s first memory
    operation."""
    j = trace.mem_off[seq]
    return (trace.mem_kind[j], trace.mem_addr[j], trace.mem_value[j],
            trace.mem_used[j])


class TestSpecValidation:
    def test_negative_seq(self):
        with pytest.raises(FaultSpecError):
            TransientFault(FaultSite.RESULT, seq=-1).validate()

    def test_bit_range(self):
        with pytest.raises(FaultSpecError):
            TransientFault(FaultSite.RESULT, seq=0, bit=64).validate()

    def test_hard_fault_mask(self):
        with pytest.raises(FaultSpecError):
            HardFault(Opcode.ADD, mask=0).validate()

    def test_system_faults_split(self):
        faults = [
            TransientFault(FaultSite.RESULT, seq=0),
            TransientFault(FaultSite.CHECKPOINT, seq=1),
            TransientFault(FaultSite.CHECKER, seq=2),
        ]
        split = system_faults(faults)
        assert len(split["checkpoint"]) == 1
        assert len(split["checker"]) == 1


class TestTransientInjection:
    def test_result_corrupts_register_flow(self, program, clean):
        seq = find_seq(clean, Opcode.ADDI)
        injector, trace = inject(
            program, TransientFault(FaultSite.RESULT, seq=seq, bit=4))
        assert injector.activations
        assert clean.dsts[seq][0][2] ^ (1 << 4) == trace.dsts[seq][0][2]

    def test_result_on_store_does_not_activate(self, program, clean):
        seq = find_seq(clean, Opcode.ST)
        injector, _ = inject(
            program, TransientFault(FaultSite.RESULT, seq=seq, bit=4))
        assert not injector.activations  # stores have no writeback

    def test_load_value_sets_used_value(self, program, clean):
        seq = find_seq(clean, Opcode.LD)
        injector, trace = inject(
            program, TransientFault(FaultSite.LOAD_VALUE, seq=seq, bit=2))
        kind, _addr, value, used = first_mem(trace, seq)
        assert kind == LOAD
        # the memory value (what the LFU captured) is clean; the value the
        # core actually used is corrupted
        assert used == value ^ (1 << 2)

    def test_load_value_only_strikes_loads(self, program, clean):
        seq = find_seq(clean, Opcode.ADDI)
        injector, _ = inject(
            program, TransientFault(FaultSite.LOAD_VALUE, seq=seq, bit=2))
        assert not injector.activations

    def test_store_value_reaches_memory_and_log(self, program, clean):
        # skip=50: iterations 36..63 write their array slot exactly once,
        # so no later clean store overwrites the corrupted value
        seq = find_seq(clean, Opcode.ST, skip=50)
        injector, trace = inject(
            program, TransientFault(FaultSite.STORE_VALUE, seq=seq, bit=5))
        assert injector.activations
        _kind, _addr, clean_value, _used = first_mem(clean, seq)
        _kind, addr, value, _used = first_mem(trace, seq)
        assert value == clean_value ^ (1 << 5)
        assert trace.memory.load(addr) == value

    def test_store_addr_corrupts_destination(self, program, clean):
        # bit 9 pushes the address 512 B away — outside the 64-word array,
        # so nothing overwrites the stray store
        seq = find_seq(clean, Opcode.ST, skip=50)
        injector, trace = inject(
            program, TransientFault(FaultSite.STORE_ADDR, seq=seq, bit=9))
        _kind, clean_addr, _value, _used = first_mem(clean, seq)
        _kind, addr, value, _used = first_mem(trace, seq)
        assert addr == clean_addr ^ (1 << 9)
        assert trace.memory.load(addr) == value

    def test_store_addr_stays_aligned(self, program, clean):
        seq = find_seq(clean, Opcode.ST)
        _, trace = inject(
            program, TransientFault(FaultSite.STORE_ADDR, seq=seq, bit=0))
        assert first_mem(trace, seq)[1] % 8 == 0

    def test_load_addr_corrupts_access(self, program, clean):
        seq = find_seq(clean, Opcode.LD)
        injector, trace = inject(
            program, TransientFault(FaultSite.LOAD_ADDR, seq=seq, bit=7))
        assert first_mem(trace, seq)[1] == first_mem(clean, seq)[1] ^ (1 << 7)

    def test_branch_flips_direction(self, program, clean):
        seq = find_seq(clean, Opcode.BLT, skip=5)
        injector, trace = inject(
            program, TransientFault(FaultSite.BRANCH, seq=seq))
        assert injector.activations
        assert trace.takens[seq] != clean.takens[seq]
        assert len(trace) != len(clean) or \
            trace.next_pc_of(seq) != clean.next_pc_of(seq)

    def test_pc_fault_diverts_control(self, program, clean):
        injector, trace = inject(
            program, TransientFault(FaultSite.PC, seq=50, bit=1))
        assert injector.activations
        assert trace.pcs[51] != clean.pcs[51]

    def test_beyond_trace_never_activates(self, program, clean):
        injector, _ = inject(
            program,
            TransientFault(FaultSite.RESULT, seq=len(clean) + 100, bit=1))
        assert not injector.activations

    def test_fp_result_corruption(self):
        from repro.isa.program import ProgramBuilder
        b = ProgramBuilder("fp")
        out = b.alloc_words(1)
        b.emit(Opcode.FMOVI, rd=1, imm=1.5)
        b.emit(Opcode.FADD, rd=2, rs1=1, rs2=1)
        b.emit(Opcode.MOVI, rd=1, imm=out)
        b.emit(Opcode.FST, rs2=2, rs1=1, imm=0)
        b.emit(Opcode.HALT)
        program = b.build()
        injector, trace = inject(
            program, TransientFault(FaultSite.RESULT, seq=1, bit=52))
        assert injector.activations
        clean = execute_program(program)
        assert trace.final_fregs[2] != clean.final_fregs[2]


class TestHardFaults:
    def test_repeats_every_execution(self, program, clean):
        injector = FaultInjector([HardFault(Opcode.ADD, mask=1 << 3)])
        trace = execute_program(program, fault_injector=injector)
        adds = ops(clean).count(Opcode.ADD)
        assert len(injector.activations) == adds
        assert adds > 50

    def test_start_seq_gates_onset(self, program, clean):
        start = len(clean) // 2
        injector = FaultInjector(
            [HardFault(Opcode.ADD, mask=1, start_seq=start)])
        execute_program(program, fault_injector=injector)
        assert all(seq >= start for seq, _site in injector.activations)

    def test_unused_opcode_never_activates(self, program):
        injector = FaultInjector([HardFault(Opcode.FDIV, mask=1)])
        execute_program(program, fault_injector=injector)
        assert not injector.activations


class TestSiteCatalogue:
    def test_execution_sites_complete(self):
        assert FaultSite.RESULT in EXECUTION_SITES
        assert FaultSite.CHECKPOINT not in EXECUTION_SITES
        assert FaultSite.CHECKER not in EXECUTION_SITES
