"""Block-compiled execution engine: identity, coverage, kill switch.

The contract under test is *byte identity*: with the block-compiled
fast path enabled (the default), every observable artefact — trace
payloads, forked faulty traces, checker replay steps and verdicts —
must equal what the per-instruction handler path produces, across the
whole workload suite and the hand-built edge cases.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings

from repro.common.config import default_config
from repro.common.errors import ExecutionError
from repro.detection.checker import SegmentChecker
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.harness import campaign
from repro.harness.campaign import JobSpec, execute_job
from repro.isa import blocks
from repro.isa.blocks import (
    BLOCK_EXEC_ENV,
    MAX_BLOCK_LEN,
    STATS,
    block_exec_enabled,
    block_table,
)
from repro.isa.executor import (
    Machine,
    _uops_by_pc,
    execute_forked,
    execute_program,
)
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder, predecode
from repro.workloads.suite import BENCHMARK_ORDER, build_benchmark

from tests.conftest import build_rmw_loop
from tests.detection.test_checker import build_segment, doctored
from tests.isa.test_block_property import build_program, program_draw


@pytest.fixture
def handler_mode(monkeypatch):
    """Force the per-instruction path for the duration of a test."""
    monkeypatch.setenv(BLOCK_EXEC_ENV, "0")


def both_mode_traces(program, monkeypatch, **kwargs):
    monkeypatch.setenv(BLOCK_EXEC_ENV, "1")
    block = execute_program(program, **kwargs)
    monkeypatch.setenv(BLOCK_EXEC_ENV, "0")
    handler = execute_program(program, **kwargs)
    monkeypatch.delenv(BLOCK_EXEC_ENV)
    return block, handler


class TestKillSwitch:
    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv(BLOCK_EXEC_ENV, raising=False)
        assert block_exec_enabled()

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv(BLOCK_EXEC_ENV, "0")
        assert not block_exec_enabled()

    def test_disabled_run_never_calls_blocks(self, handler_mode):
        program = build_rmw_loop(iterations=20, name="ks")
        before = STATS.block_calls
        execute_program(program)
        assert STATS.block_calls == before


class TestSuiteIdentity:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_trace_payload_identical(self, name, monkeypatch):
        program = build_benchmark(name, "small")
        block, handler = both_mode_traces(program, monkeypatch)
        assert block.to_payload() == handler.to_payload()

    def test_coverage_floor_on_suite(self, monkeypatch):
        monkeypatch.delenv(BLOCK_EXEC_ENV, raising=False)
        for name in BENCHMARK_ORDER:
            program = build_benchmark(name, "small")
            STATS.reset()
            execute_program(program)
            assert STATS.coverage() >= 0.8, (name, STATS.coverage())


class TestTableStructure:
    def test_table_cached_on_program(self):
        program = build_rmw_loop(iterations=5, name="cache")
        assert block_table(program) is block_table(program)

    def test_blocks_end_at_terminators(self):
        b = ProgramBuilder("term")
        b.emit(Opcode.MOVI, rd=1, imm=1)
        b.emit(Opcode.ADDI, rd=1, rs1=1, imm=1)
        b.emit(Opcode.J, target=3)
        b.emit(Opcode.HALT)
        table = block_table(b.build())
        block = table.build(0)
        assert block.n == 3  # movi, addi, j — terminated by the jump
        assert table.build(3).n == 1

    def test_block_length_capped(self):
        b = ProgramBuilder("long")
        for _ in range(MAX_BLOCK_LEN + 40):
            b.emit(Opcode.ADDI, rd=1, rs1=1, imm=1)
        b.emit(Opcode.HALT)
        table = block_table(b.build())
        assert table.build(0).n == MAX_BLOCK_LEN

    def test_overlapping_suffix_block(self):
        # jumping into the middle of a straight-line run compiles a
        # suffix block of its own; both commit identically
        b = ProgramBuilder("mid")
        b.emit(Opcode.MOVI, rd=1, imm=5)
        b.emit(Opcode.ADDI, rd=1, rs1=1, imm=1)
        b.emit(Opcode.ADDI, rd=1, rs1=1, imm=2)
        b.emit(Opcode.HALT)
        table = block_table(b.build())
        whole = table.build(0)
        suffix = table.build(2)
        assert whole.n == 4 and suffix.n == 2


class TestFaultPathIdentity:
    def test_injected_run_identical(self, monkeypatch):
        program = build_rmw_loop(iterations=60, name="inj")
        fault = [TransientFault(FaultSite.RESULT, seq=150, bit=3)]

        def run():
            return execute_program(
                program, fault_injector=FaultInjector(list(fault)))

        monkeypatch.setenv(BLOCK_EXEC_ENV, "1")
        block = run()
        monkeypatch.setenv(BLOCK_EXEC_ENV, "0")
        handler = run()
        assert block.to_payload() == handler.to_payload()

    def test_forked_faulty_run_identical(self, monkeypatch):
        program = build_rmw_loop(iterations=60, name="fork")
        fault = TransientFault(FaultSite.RESULT, seq=200, bit=7)

        def run():
            golden = execute_program(program)
            return execute_forked(golden, FaultInjector([fault]))

        monkeypatch.setenv(BLOCK_EXEC_ENV, "1")
        block = run()
        monkeypatch.setenv(BLOCK_EXEC_ENV, "0")
        handler = run()
        assert block.to_payload() == handler.to_payload()

    def test_trap_in_self_loop_identical(self, monkeypatch):
        # a self-loop block whose load eventually goes misaligned must
        # trap exactly like the handler path (non-inject: the error
        # propagates, no trace is observable)
        b = ProgramBuilder("looptrap")
        b.put_word(0x100, 1)
        b.emit(Opcode.MOVI, rd=1, imm=0x100)
        b.emit(Opcode.MOVI, rd=2, imm=8)
        b.label("loop")
        b.emit(Opcode.LD, rd=3, rs1=1, imm=0)
        b.emit(Opcode.ADDI, rd=1, rs1=1, imm=7)   # goes misaligned
        b.emit(Opcode.ADDI, rd=2, rs1=2, imm=-1)
        b.emit(Opcode.BNE, rs1=2, rs2=0, target="loop")
        b.emit(Opcode.HALT)
        program = b.build()
        monkeypatch.setenv(BLOCK_EXEC_ENV, "1")
        with pytest.raises(ExecutionError):
            execute_program(program)
        monkeypatch.setenv(BLOCK_EXEC_ENV, "0")
        with pytest.raises(ExecutionError):
            execute_program(program)


class TestNondetIdentity:
    def test_nondet_reads_identical(self, monkeypatch):
        b = ProgramBuilder("nd")
        b.emit(Opcode.MOVI, rd=1, imm=0)
        b.label("loop")
        b.emit(Opcode.RDRAND, rd=2)
        b.emit(Opcode.RDCYCLE, rd=3)
        b.emit(Opcode.ADDI, rd=1, rs1=1, imm=1)
        b.emit(Opcode.SLTI, rd=4, rs1=1, imm=20)
        b.emit(Opcode.BNE, rs1=4, rs2=0, target="loop")
        b.emit(Opcode.HALT)
        program = b.build()
        block, handler = both_mode_traces(program, monkeypatch)
        assert block.to_payload() == handler.to_payload()


class TestCheckerIdentity:
    def _segments(self, trace, step=97):
        n = len(trace)
        return [build_segment(trace, s, min(s + step, n))
                for s in range(0, n, step)]

    def test_replay_steps_identical(self, rmw_program, rmw_trace,
                                    monkeypatch):
        for segment in self._segments(rmw_trace):
            monkeypatch.setenv(BLOCK_EXEC_ENV, "1")
            block = SegmentChecker(rmw_program).check(segment)
            monkeypatch.setenv(BLOCK_EXEC_ENV, "0")
            handler = SegmentChecker(rmw_program).check(segment)
            assert block.ok and handler.ok
            assert block.steps == handler.steps
            assert (block.instructions_executed
                    == handler.instructions_executed)

    def test_mismatch_bail_identical(self, rmw_program, rmw_trace,
                                     monkeypatch):
        # corrupt one load value mid-segment: the replay must stop at
        # the same instruction with the same error in both modes
        segment = build_segment(rmw_trace, 40, 240)
        segment = doctored(segment, 11,
                           value=segment.values[segment.lo + 11] ^ 0x8)

        monkeypatch.setenv(BLOCK_EXEC_ENV, "1")
        block = SegmentChecker(rmw_program).check(segment)
        monkeypatch.setenv(BLOCK_EXEC_ENV, "0")
        handler = SegmentChecker(rmw_program).check(segment)
        assert not block.ok and not handler.ok
        assert [e.kind for e in block.errors] == [e.kind
                                                  for e in handler.errors]
        assert block.steps == handler.steps
        assert block.instructions_executed == handler.instructions_executed


def assert_lengths_match_compiled(program):
    table = block_table(program)
    decoded = predecode(program)
    uops = _uops_by_pc(program)
    for pc in range(len(decoded)):
        block = blocks._compile_block(program, decoded, pc, uops)
        assert table.lengths[pc] == block.n, pc


class TestStaticShapes:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_lengths_match_compiled_blocks_on_suite(self, name):
        assert_lengths_match_compiled(build_benchmark(name, "small"))

    @settings(max_examples=40, deadline=None)
    @given(program_draw)
    def test_lengths_match_compiled_blocks_on_random_programs(self, draw):
        assert_lengths_match_compiled(build_program(draw))

    def test_leaders(self):
        b = ProgramBuilder("leaders")
        b.emit(Opcode.MOVI, rd=1, imm=3)            # 0: entry
        b.label("loop")
        b.emit(Opcode.ADDI, rd=1, rs1=1, imm=-1)    # 1: branch target
        b.emit(Opcode.BNE, rs1=1, rs2=0, target="loop")
        b.emit(Opcode.RDCYCLE, rd=2)                # 3: after a branch
        b.emit(Opcode.ADDI, rd=2, rs1=2, imm=1)     # 4: after a nondet
        b.emit(Opcode.HALT)
        table = block_table(b.build())
        assert table.leaders == {0, 1, 3, 4}
        assert table.lengths == (3, 2, 1, 1, 2, 1)
        assert [pc for pc, fn in enumerate(table.runs) if fn] == [0, 1, 3, 4]

    def test_max_len_splits_are_leaders(self):
        b = ProgramBuilder("split")
        for _ in range(2 * MAX_BLOCK_LEN + 40):
            b.emit(Opcode.ADDI, rd=1, rs1=1, imm=1)
        b.emit(Opcode.HALT)
        table = block_table(b.build())
        assert table.leaders == {0, MAX_BLOCK_LEN, 2 * MAX_BLOCK_LEN}
        assert table.lengths[2 * MAX_BLOCK_LEN] == 41

    def test_compiles_only_leaders_on_first_run(self, monkeypatch):
        monkeypatch.delenv(BLOCK_EXEC_ENV, raising=False)
        program = build_rmw_loop(iterations=20, name="lazy")
        table = block_table(program)
        compiled = spy_compiles(monkeypatch)
        execute_program(program)
        assert compiled and set(compiled) <= table.leaders
        assert len(compiled) == len(set(compiled))


def spy_compiles(monkeypatch) -> list[int]:
    """Record the leader of every block compiled from now on."""
    compiled: list[int] = []
    real = blocks._compile_block

    def spy(program, decoded, leader, uops_table):
        compiled.append(leader)
        return real(program, decoded, leader, uops_table)

    monkeypatch.setattr(blocks, "_compile_block", spy)
    return compiled


class TestCompileSites:
    @pytest.mark.parametrize("name", ["stream", "bitcount", "swaptions"])
    def test_fault_cell_compiles_nothing_after_golden_run(
            self, name, monkeypatch):
        # faulty suffixes and checker segments start mid-block and run
        # on handlers up to the next leader, whose block the golden run
        # already compiled.  (Fails when every block a faulty suffix or
        # a segment start reaches gets compiled.)
        monkeypatch.delenv(BLOCK_EXEC_ENV, raising=False)
        golden = execute_program(build_benchmark(name, "small"))
        monkeypatch.setattr(campaign, "benchmark_trace",
                            lambda _name, _scale="default": golden)
        compiled = spy_compiles(monkeypatch)
        faults = tuple(
            TransientFault(FaultSite.RESULT, seq=len(golden) * j // 13,
                           bit=(5 * j) % 64)
            for j in range(1, 13))
        record = execute_job(JobSpec("fault-batch", name, "small",
                                     config=default_config(), faults=faults,
                                     scheme="detection"))
        assert len(record["records"]) == len(faults)
        assert compiled == []

    def test_one_source_per_block_on_suite(self, monkeypatch):
        # a block compiles one source holding its run and replay
        # functions, and a self-loop block installs the same run
        # function as any other.  (Fails when a block compiles a second
        # source or installs another run function.)
        monkeypatch.delenv(BLOCK_EXEC_ENV, raising=False)
        sources: list[str] = []

        def spy_compile(source, filename, mode):
            sources.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(blocks, "compile", spy_compile, raising=False)
        compiled = spy_compiles(monkeypatch)
        counts, run_names = {}, set()
        for name in BENCHMARK_ORDER:
            program = build_benchmark(name, "small")
            first_source, first_block = len(sources), len(compiled)
            execute_program(program)
            leaders = compiled[first_block:]
            counts[name] = (len(sources) - first_source, len(leaders))
            runs = block_table(program).runs
            run_names.update(runs[pc].__name__ for pc in leaders)
        total = tuple(map(sum, zip(*counts.values())))
        assert total[0] == total[1], (total, counts)
        assert run_names == {"__block_run__"}


def empty_columns():
    return (array("Q"), [], array("b"), array("Q", (0,)), array("b"),
            array("Q"), array("Q"), array("Q"))


def handler_columns(machine: Machine, rows: int):
    """Commit ``rows`` rows on the handlers, as the commit loop does,
    then check the next row traps."""
    columns = empty_columns()
    pcs, dsts, takens, mem_off, kinds, addrs, values, useds = columns
    for _ in range(rows):
        pc = machine.pc
        row_dsts, mem, taken = machine.step()
        pcs.append(pc)
        dsts.append(row_dsts)
        takens.append(-1 if taken is None else int(taken))
        for kind, addr, value, used in mem:
            kinds.append(kind)
            addrs.append(addr)
            values.append(value)
            useds.append(used)
        mem_off.append(mem_off[-1] + len(mem))
    with pytest.raises(ExecutionError):
        machine.step()
    return columns


def setup_machine(program, xregs: dict[int, int], seq: int) -> Machine:
    machine = Machine(program)
    for reg, value in xregs.items():
        machine.xregs[reg] = value
    machine.fregs[3] = 2.5
    machine.instr_count = seq
    return machine


def assert_trap_precise(program, xregs, committed: int):
    """The block at pc 0 traps after ``committed`` rows, leaving the
    columns and machine exactly as the handlers do."""
    block = block_table(program).build(0)
    machine = setup_machine(program, xregs, seq=100)
    columns = empty_columns()
    with pytest.raises(ExecutionError):
        block.run(machine, 100, *columns)
    reference = setup_machine(program, xregs, seq=100)
    assert columns == handler_columns(reference, committed)
    assert machine.xregs == reference.xregs
    assert [repr(v) for v in machine.fregs] == [
        repr(v) for v in reference.fregs]
    assert machine.memory._words == reference.memory._words
    assert machine.pc == reference.pc
    assert machine.instr_count == reference.instr_count == 100 + committed
    return block


#: the trapping row at pc 4, one per memory op, based on misaligned x10
TRAP_ROWS = {
    "ld": dict(op=Opcode.LD, rd=3, rs1=10),
    "fld": dict(op=Opcode.FLD, rd=2, rs1=10),
    "ldp": dict(op=Opcode.LDP, rd=3, rd2=5, rs1=10),
    "st": dict(op=Opcode.ST, rs2=2, rs1=10),
    "fst": dict(op=Opcode.FST, rs2=1, rs1=10),
    "stp": dict(op=Opcode.STP, rs2=2, rs3=4, rs1=10),
}


class TestTrapPrecision:
    """A run variant whose row traps commits exactly the rows before it.
    (Fails when a trapping block drops the rows it completed.)"""

    @pytest.mark.parametrize("trap", sorted(TRAP_ROWS))
    def test_plain_variant(self, trap):
        b = ProgramBuilder("trap-plain")
        b.emit(Opcode.ADDI, rd=2, rs1=2, imm=5)       # x2 rewritten later
        b.emit(Opcode.ST, rs2=2, rs1=9, imm=8)        # a store first
        b.emit(Opcode.FCVT_I2F, rd=1, rs1=2)
        b.emit(Opcode.FMOVI, rd=3, imm=float("nan"))
        b.emit(**TRAP_ROWS[trap], imm=0)               # row 4 traps
        b.emit(Opcode.ADDI, rd=2, rs1=2, imm=3)
        b.emit(Opcode.HALT)
        block = assert_trap_precise(b.build(), {2: 7, 4: 11, 9: 0x1000,
                                                10: 0x2003}, committed=4)
        assert block.run.__name__ == "__block_run__"

    def test_self_loop_block(self):
        # a block whose branch targets its own leader runs one trip per
        # call, like any other block
        program = emit_trap_loop(ProgramBuilder("trap-loop"))
        block = assert_trap_precise(program, {1: 0x2004, 2: 7, 9: 0x1000,
                                              11: 5}, committed=3)
        assert block.run.__name__ == "__block_run__"

    def test_second_trip_trap_in_commit_loop(self, monkeypatch):
        # the first trip commits whole; the second traps at row 3,
        # before the rows that write x1 and x11, so both must keep what
        # the first trip left (x1's local holds the value row 3 loaded
        # for its address).  The fault is on a MOVI row (no load to
        # strike), so it cannot fire, and every loop row commits
        # through the block loop.
        b = ProgramBuilder("trap-loop-run")
        b.emit(Opcode.MOVI, rd=1, imm=0x2000)
        b.emit(Opcode.MOVI, rd=2, imm=7)
        b.emit(Opcode.MOVI, rd=9, imm=0x1000)
        b.emit(Opcode.FMOVI, rd=3, imm=2.5)
        b.emit(Opcode.MOVI, rd=11, imm=5)
        program = emit_trap_loop(b)

        def run():
            injector = FaultInjector(
                [TransientFault(FaultSite.LOAD_ADDR, seq=4, bit=3)])
            trace = execute_program(program, fault_injector=injector)
            assert not injector.activations
            return trace

        monkeypatch.setenv(BLOCK_EXEC_ENV, "1")
        before = STATS.block_instrs
        block = run()
        assert STATS.block_instrs - before == 7 + 3
        monkeypatch.setenv(BLOCK_EXEC_ENV, "0")
        handler = run()
        assert block.crashed and handler.crashed
        assert len(block) == 5 + 7 + 3
        assert block.to_payload() == handler.to_payload()


def emit_trap_loop(b: ProgramBuilder):
    """A self-loop block whose load (row 3) is misaligned whenever x1,
    which steps by 4, is; rows past it write x1 and x11."""
    b.label("loop")
    b.emit(Opcode.ST, rs2=2, rs1=9, imm=0)        # a store first
    b.emit(Opcode.ADDI, rd=2, rs1=2, imm=1)
    b.emit(Opcode.FADD, rd=3, rs1=3, rs2=3)
    b.emit(Opcode.LD, rd=5, rs1=1, imm=0)         # row 3 traps
    b.emit(Opcode.ADDI, rd=1, rs1=1, imm=4)
    b.emit(Opcode.ADDI, rd=11, rs1=11, imm=-1)
    b.emit(Opcode.BNE, rs1=11, rs2=0, target="loop")
    b.emit(Opcode.HALT)
    return b.build()
