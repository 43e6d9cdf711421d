"""Behavioural tests for the out-of-order core timing model."""

from repro.common.config import default_config
from repro.core.ooo_core import CommitHook, OoOCore
from repro.isa.executor import execute_program
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder

from tests.conftest import build_alu_loop, build_rmw_loop


def time_program(program, config=None):
    cfg = config or default_config()
    trace = execute_program(program)
    return OoOCore(cfg).run(trace), trace


def straightline(ops):
    """Build a program from a list of (op, kwargs) with a HALT appended."""
    b = ProgramBuilder("t")
    for op, kwargs in ops:
        b.emit(op, **kwargs)
    b.emit(Opcode.HALT)
    return b.build()


def loop_of(body_ops, iterations=300):
    """A counted loop around ``body_ops`` — keeps the I-cache warm so the
    test measures the backend, not cold code misses."""
    b = ProgramBuilder("t")
    b.emit(Opcode.MOVI, rd=30, imm=0)
    b.emit(Opcode.MOVI, rd=31, imm=iterations)
    b.label("loop")
    for op, kwargs in body_ops:
        b.emit(op, **kwargs)
    b.emit(Opcode.ADDI, rd=30, rs1=30, imm=1)
    b.emit(Opcode.BLT, rs1=30, rs2=31, target="loop")
    b.emit(Opcode.HALT)
    return b.build()


class TestILP:
    def test_independent_beats_dependent(self):
        independent = loop_of(
            [(Opcode.ADDI, dict(rd=1 + (i % 8), rs1=0, imm=i))
             for i in range(8)])
        dependent = loop_of(
            [(Opcode.ADDI, dict(rd=1, rs1=1, imm=1)) for i in range(8)])
        ind, _ = time_program(independent)
        dep, _ = time_program(dependent)
        assert ind.cycles < dep.cycles
        assert ind.ipc > 1.5       # 3-wide core on independent work
        assert dep.ipc <= 1.3      # serial 8-deep chain dominates the body

    def test_fetch_width_bounds_ipc(self):
        result, _ = time_program(loop_of(
            [(Opcode.ADDI, dict(rd=1 + (i % 8), rs1=0, imm=i))
             for i in range(9)]))
        assert result.ipc <= 3.0 + 1e-9

    def test_long_latency_chain(self):
        muls = loop_of([(Opcode.MUL, dict(rd=1, rs1=1, rs2=1))
                        for _ in range(6)])
        adds = loop_of([(Opcode.ADD, dict(rd=1, rs1=1, rs2=1))
                        for _ in range(6)])
        mul_result, _ = time_program(muls)
        add_result, _ = time_program(adds)
        # dependent MULs pay the 3-cycle latency each
        assert mul_result.cycles > 1.8 * add_result.cycles


class TestMemoryBehaviour:
    def test_cache_misses_slow_execution(self):
        small = build_rmw_loop(iterations=500, array_words=64)
        # 2^16 words = 512 KiB: misses L1 constantly
        big = build_rmw_loop(iterations=500, array_words=1 << 16)
        fast, _ = time_program(small)
        slow, _ = time_program(big)
        assert slow.cycles > fast.cycles
        assert slow.l1d_misses > fast.l1d_misses

    def test_store_load_forwarding(self):
        b = ProgramBuilder("fwd")
        b.emit(Opcode.MOVI, rd=1, imm=0x100000)
        b.emit(Opcode.MOVI, rd=30, imm=0)
        b.emit(Opcode.MOVI, rd=31, imm=300)
        b.label("loop")
        for i in range(4):
            b.emit(Opcode.ST, rs2=1, rs1=1, imm=i * 8)
            b.emit(Opcode.LD, rd=2, rs1=1, imm=i * 8)
        b.emit(Opcode.ADDI, rd=30, rs1=30, imm=1)
        b.emit(Opcode.BLT, rs1=30, rs2=31, target="loop")
        b.emit(Opcode.HALT)
        result, _ = time_program(b.build())
        # forwarded loads avoid the cache path: high IPC despite ld/st pairs
        assert result.ipc > 0.9


class TestBranches:
    def test_predictable_loop_few_mispredicts(self):
        result, trace = time_program(build_alu_loop(iterations=800))
        static = trace.program.instructions
        branches = sum(1 for pc in trace.pcs if static[pc].op is Opcode.BLT)
        assert result.branch_mispredicts < 0.05 * branches

    def test_random_branches_mispredict(self):
        b = ProgramBuilder("rand")
        b.emit(Opcode.MOVI, rd=1, imm=0x9E3779B97F4A7C15)
        b.emit(Opcode.MOVI, rd=2, imm=0)
        b.emit(Opcode.MOVI, rd=3, imm=500)
        b.label("loop")
        # xorshift, branch on low bit: essentially random direction
        b.emit(Opcode.SLLI, rd=4, rs1=1, imm=13)
        b.emit(Opcode.XOR, rd=1, rs1=1, rs2=4)
        b.emit(Opcode.SRLI, rd=4, rs1=1, imm=7)
        b.emit(Opcode.XOR, rd=1, rs1=1, rs2=4)
        b.emit(Opcode.ANDI, rd=5, rs1=1, imm=1)
        b.emit(Opcode.BEQ, rs1=5, rs2=0, target="skip")
        b.emit(Opcode.ADDI, rd=6, rs1=6, imm=1)
        b.label("skip")
        b.emit(Opcode.ADDI, rd=2, rs1=2, imm=1)
        b.emit(Opcode.BLT, rs1=2, rs2=3, target="loop")
        b.emit(Opcode.HALT)
        result, trace = time_program(b.build())
        # the data-dependent BEQ is unpredictable: expect many mispredicts
        assert result.branch_mispredicts > 100


class TestDeterminism:
    def test_same_trace_same_cycles(self, rmw_trace, config):
        a = OoOCore(config).run(rmw_trace)
        b = OoOCore(config).run(rmw_trace)
        assert a.cycles == b.cycles
        assert a.branch_mispredicts == b.branch_mispredicts


class TestCommitHook:
    def test_pre_commit_stall_applies(self, rmw_trace, config):
        class Delay(CommitHook):
            def pre_commit(self, instr, earliest):
                return earliest + 2  # stall every instruction

        base = OoOCore(config).run(rmw_trace)
        stalled = OoOCore(config).run(rmw_trace, hook=Delay())
        # commits are now spaced >= 2 cycles apart (stalls overlap with
        # whatever latency the instruction already had)
        assert stalled.cycles >= 2 * len(rmw_trace)
        assert stalled.cycles > base.cycles
        assert stalled.commit_stall_cycles > 0

    def test_post_commit_pause_applies(self, rmw_trace, config):
        class Pause(CommitHook):
            def __init__(self):
                self.count = 0

            def post_commit(self, instr, cycle):
                self.count += 1
                return 100 if self.count % 500 == 0 else 0

        base = OoOCore(config).run(rmw_trace)
        paused = OoOCore(config).run(rmw_trace, hook=Pause())
        assert paused.cycles > base.cycles

    def test_finish_sets_system_cycles(self, rmw_trace, config):
        class Hold(CommitHook):
            def finish(self, last):
                return last + 12345

        result = OoOCore(config).run(rmw_trace, hook=Hold())
        assert result.system_cycles == result.cycles + 12345

    def test_no_hook_system_equals_core(self, rmw_trace, config):
        result = OoOCore(config).run(rmw_trace)
        assert result.system_cycles == result.cycles


class TestResultFields:
    def test_counts(self, rmw_trace, config):
        result = OoOCore(config).run(rmw_trace)
        assert result.instructions == len(rmw_trace)
        assert result.uops >= result.instructions
        assert result.cycles > 0
        assert 0 < result.ipc <= 3.0


class TestResumableRun:
    """``run()`` must equal the decomposed start_state/run_rows/finish_run
    sequence, and a fork mid-run must continue to the same CoreResult —
    everything asserted through CoreResult, never core internals."""

    def test_decomposed_run_equals_run(self, rmw_trace, config):
        whole = OoOCore(config).run(rmw_trace)
        core = OoOCore(config)
        state = core.start_state()
        core.run_rows(rmw_trace, None, state, len(rmw_trace))
        assert core.finish_run(rmw_trace, None, state) == whole

    def test_segmented_run_rows_equals_run(self, rmw_trace, config):
        whole = OoOCore(config).run(rmw_trace)
        core = OoOCore(config)
        state = core.start_state()
        n = len(rmw_trace)
        for stop in (n // 3, 2 * n // 3, n):
            core.run_rows(rmw_trace, None, state, stop)
        assert core.finish_run(rmw_trace, None, state) == whole

    def test_fork_continues_identically(self, rmw_trace, config):
        whole = OoOCore(config).run(rmw_trace)
        core = OoOCore(config)
        state = core.start_state()
        core.run_rows(rmw_trace, None, state, len(rmw_trace) // 2)
        fcore, fstate, fhook = core.fork(state, None)
        # the original continues; so does the fork — same result twice
        core.run_rows(rmw_trace, None, state, len(rmw_trace))
        original = core.finish_run(rmw_trace, None, state)
        fcore.run_rows(rmw_trace, fhook, fstate, len(rmw_trace))
        forked = fcore.finish_run(rmw_trace, fhook, fstate)
        assert original == whole
        assert forked == whole

    def test_recording_columns_consistent(self, rmw_trace, config):
        from repro.core.timing import TimingColumns

        record = TimingColumns()
        core = OoOCore(config)
        state = core.start_state()
        core.run_rows(rmw_trace, None, state, len(rmw_trace), record=record)
        result = core.finish_run(rmw_trace, None, state)
        n = len(rmw_trace)
        assert len(record.issue) == len(record.commit) == n
        assert len(record.branch) == len(record.l1d) == len(record.l2) == n
        # commits are program-ordered and the last one closes the run
        assert all(a <= b for a, b in
                   zip(record.commit, record.commit[1:]))
        assert record.commit[-1] == result.cycles - 1
        # per-row deltas reconcile with the aggregate counters
        assert sum(record.l1d) == result.l1d_misses
        assert sum(record.l2) == result.l2_misses
        assert sum(1 for b in record.branch if b >= 0) == \
            result.branch_lookups
        assert sum(1 for b in record.branch if b == 1) == \
            result.branch_mispredicts


class TestKnownTracePin:
    """Regression pin: the full CoreResult of one known suite trace.

    Any change to the timing model's physics shows up here first;
    an intended change updates these constants deliberately."""

    def test_stream_small_cycle_counts(self):
        from repro.workloads.suite import benchmark_trace

        result = OoOCore(default_config()).run(
            benchmark_trace("stream", "small"))
        assert result.cycles == 14208
        assert result.instructions == 4972
        assert result.uops == 4972
        assert result.system_cycles == 14208
        assert result.branch_lookups == 600
        assert result.branch_mispredicts == 19
        assert result.l1d_misses == 450
        assert result.l2_misses == 14
        assert result.commit_stall_cycles == 0
