"""Columnar-trace tests: layout invariants, bit-exact round trips
through the golden-trace store's binary envelope, and the ISA edge
semantics pinned across the pre-decode/columnar refactor."""

import pytest

from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.isa.executor import (
    LOAD,
    NONDET,
    STORE,
    Trace,
    execute_program,
)
from repro.isa.instructions import CONTROL_OPS, MASK64, Opcode
from repro.isa.memory_image import float_to_bits
from repro.isa.program import HANDLER_INDEX, ProgramBuilder, predecode
from repro.workloads.suite import BENCHMARK_ORDER, build_benchmark
from repro.workloads.trace_store import TraceStore


class TestPredecode:
    def test_records_cover_program(self, rmw_program):
        records = predecode(rmw_program)
        assert len(records) == len(rmw_program.instructions)
        for pc, (record, instr) in enumerate(
                zip(records, rmw_program.instructions)):
            assert record.pc == pc
            assert record.hidx == HANDLER_INDEX[instr.op]

    def test_operand_slots_resolved(self, rmw_program):
        for record, instr in zip(predecode(rmw_program),
                                 rmw_program.instructions):
            assert record.rd == (instr.rd or 0)
            assert record.rs1 == (instr.rs1 or 0)
            assert record.target == (instr.target
                                     if instr.target is not None else -1)

    def test_cached_per_program(self, rmw_program):
        assert predecode(rmw_program) is predecode(rmw_program)


class TestColumnarLayout:
    def test_mem_offsets_are_csr(self, rmw_trace):
        off = rmw_trace.mem_off
        assert off[0] == 0
        assert len(off) == len(rmw_trace) + 1
        assert list(off) == sorted(off)
        assert off[-1] == len(rmw_trace.mem_kind)
        assert (len(rmw_trace.mem_kind) == len(rmw_trace.mem_addr)
                == len(rmw_trace.mem_value) == len(rmw_trace.mem_used))

    def test_taken_encoding(self, rmw_trace):
        assert set(rmw_trace.takens) <= {-1, 0, 1}
        static = rmw_trace.program.instructions
        for pc, taken in zip(rmw_trace.pcs, rmw_trace.takens):
            assert (taken >= 0) == (static[pc].op in CONTROL_OPS)

    def test_counts_match_columns(self, rmw_trace):
        kinds = list(rmw_trace.mem_kind)
        assert rmw_trace.load_count == kinds.count(LOAD)
        assert rmw_trace.store_count == kinds.count(STORE)


def assert_traces_identical(a: Trace, b: Trace) -> None:
    """Column-by-column equivalence plus bit-exact final state."""
    assert len(a) == len(b)
    assert list(a.pcs) == list(b.pcs)
    assert list(a.takens) == list(b.takens)
    assert a.dsts == b.dsts
    assert list(a.mem_off) == list(b.mem_off)
    assert list(a.mem_kind) == list(b.mem_kind)
    assert list(a.mem_addr) == list(b.mem_addr)
    assert list(a.mem_value) == list(b.mem_value)
    assert list(a.mem_used) == list(b.mem_used)
    assert a.final_xregs == b.final_xregs
    assert ([float_to_bits(v) for v in a.final_fregs]
            == [float_to_bits(v) for v in b.final_fregs])
    assert dict(a.memory.items()) == dict(b.memory.items())
    assert (a.halted, a.crashed, a.uop_count, a.load_count, a.store_count,
            a.final_next_pc) == \
        (b.halted, b.crashed, b.uop_count, b.load_count, b.store_count,
         b.final_next_pc)


def store_round_trip(trace: Trace, root) -> Trace:
    """``trace`` written to a golden-trace store at ``root`` and mapped
    back."""
    store = TraceStore(root)
    key = store.key(trace.program.name, "small", trace.program)
    store.put(key, trace)
    return store.get(key, trace.program)


class TestGoldenTraceEquivalence:
    """The columnar trace must survive a golden-trace store round trip
    (binary envelope, memory-mapped back) identically, on every suite
    workload — the store's correctness contract."""

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_round_trip_identical_on_suite(self, name, tmp_path):
        trace = execute_program(build_benchmark(name, "small"))
        rebuilt = store_round_trip(trace, tmp_path)
        assert_traces_identical(trace, rebuilt)
        assert rebuilt.to_payload() == trace.to_payload()

    def test_round_trip_preserves_nondet_entries(self, tmp_path):
        b = ProgramBuilder("nd")
        b.emit(Opcode.RDRAND, rd=1)
        b.emit(Opcode.RDCYCLE, rd=2)
        b.emit(Opcode.HALT)
        trace = execute_program(b.build())
        rebuilt = store_round_trip(trace, tmp_path)
        assert_traces_identical(trace, rebuilt)
        assert list(rebuilt.mem_kind) == [NONDET, NONDET]


class TestPinnedEdgeSemantics:
    """ISA corner cases pinned across the executor refactor, observed
    through the committed trace columns."""

    def test_signed_division_overflow_wraps(self):
        b = ProgramBuilder("divo")
        b.emit(Opcode.MOVI, rd=1, imm=-(1 << 63))
        b.emit(Opcode.MOVI, rd=2, imm=-1)
        b.emit(Opcode.DIV, rd=3, rs1=1, rs2=2)
        b.emit(Opcode.REM, rd=4, rs1=1, rs2=2)
        b.emit(Opcode.HALT)
        trace = execute_program(b.build())
        assert trace.dsts[2] == ((False, 3, 1 << 63),)   # -2^63 wraps
        assert trace.dsts[3] == ((False, 4, 0),)
        assert trace.final_xregs[3] == 1 << 63

    def test_divide_by_zero_all_ones(self):
        b = ProgramBuilder("div0")
        b.emit(Opcode.MOVI, rd=1, imm=42)
        b.emit(Opcode.MOVI, rd=2, imm=0)
        b.emit(Opcode.DIV, rd=3, rs1=1, rs2=2)
        b.emit(Opcode.REM, rd=4, rs1=1, rs2=2)
        b.emit(Opcode.HALT)
        trace = execute_program(b.build())
        assert trace.final_xregs[3] == MASK64   # RISC-V: all ones
        assert trace.final_xregs[4] == 42       # RISC-V: dividend

    def test_unaligned_access_trap_marks_trace_crashed(self):
        # a RESULT fault flips bit 0 of the address register: the next
        # load is unaligned, traps, and the trace ends at the last commit
        b = ProgramBuilder("trap")
        b.put_word(0x1000, 7)
        b.emit(Opcode.MOVI, rd=1, imm=0x1000)
        b.emit(Opcode.ADDI, rd=2, rs1=1, imm=0)   # seq 1: struck
        b.emit(Opcode.LD, rd=3, rs1=2, imm=0)     # seq 2: traps
        b.emit(Opcode.HALT)
        injector = FaultInjector(
            [TransientFault(FaultSite.RESULT, seq=1, bit=0)])
        trace = execute_program(b.build(), fault_injector=injector)
        assert injector.activations
        assert trace.crashed
        assert not trace.halted
        assert len(trace) == 2                     # MOVI + ADDI committed
        assert trace.final_next_pc == 2            # trapped at the load
        assert trace.final_xregs[2] == 0x1001

    def test_runaway_loop_under_injection_crashes(self):
        b = ProgramBuilder("spin")
        b.label("spin")
        b.emit(Opcode.J, target="spin")
        b.emit(Opcode.HALT)
        injector = FaultInjector(
            [TransientFault(FaultSite.RESULT, seq=5, bit=0)])
        trace = execute_program(b.build(), fault_injector=injector,
                                max_instructions=50)
        assert trace.crashed
        assert len(trace) == 50
