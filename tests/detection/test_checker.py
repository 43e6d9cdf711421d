"""Tests for checker-core replay and validation.

These build segments by hand from real traces so each hardware comparison
(load address, store address/value, checkpoint, divergence) is exercised
in isolation.  A segment is a view of the trace's memory columns, so a
corrupted log entry is planted in doctored copies of those columns.
"""

from dataclasses import replace

from repro.detection.checker import ErrorKind, SegmentChecker
from repro.detection.checkpoint import ArchStateTracker
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.detection.lslog import CloseReason, Segment
from repro.isa.executor import LOAD, STORE, execute_program


def build_segment(trace, start_seq, end_seq, index=0, slot=0, values=None):
    """Construct a closed segment covering trace[start_seq:end_seq]: a
    view of its memory columns, with ``values`` (default ``mem_value``,
    what the load forwarding unit logs) as the value column."""
    tracker = ArchStateTracker()
    tracker.apply_rows(trace.dsts, 0, start_seq)
    start = tracker.snapshot(trace.pcs[start_seq])
    tracker.apply_rows(trace.dsts, start_seq, end_seq)
    end = tracker.snapshot(trace.next_pc_of(end_seq - 1))
    return Segment(
        index=index, slot=slot, start_seq=start_seq, end_seq=end_seq,
        start_checkpoint=start, end_checkpoint=end,
        close_reason=CloseReason.FULL, close_tick=0,
        lo=trace.mem_off[start_seq], hi=trace.mem_off[end_seq],
        kinds=trace.mem_kind, addrs=trace.mem_addr,
        values=trace.mem_value if values is None else values,
        commits=[0] * (end_seq - start_seq))


def first_entry(segment, kind):
    """Index within ``segment`` of its first entry of ``kind``."""
    return next(i for i in range(segment.hi - segment.lo)
                if segment.kinds[segment.lo + i] == kind)


def doctored(segment, i, kind=None, addr=None, value=None):
    """``segment`` over copies of its columns with entry ``i`` changed."""
    kinds, addrs, values = (list(segment.kinds), list(segment.addrs),
                            list(segment.values))
    j = segment.lo + i
    if kind is not None:
        kinds[j] = kind
    if addr is not None:
        addrs[j] = addr
    if value is not None:
        values[j] = value
    return replace(segment, kinds=kinds, addrs=addrs, values=values)


def resized(segment, delta, kind=LOAD, addr=0x9999, value=0):
    """``segment`` over copies of its columns with its last ``-delta``
    entries deleted, or with ``delta`` entries of ``(kind, addr, value)``
    inserted after its last one."""
    columns = [list(segment.kinds), list(segment.addrs),
               list(segment.values)]
    hi = segment.hi
    for column, extra in zip(columns, (kind, addr, value)):
        if delta < 0:
            del column[hi + delta:hi]
        else:
            column[hi:hi] = [extra] * delta
    kinds, addrs, values = columns
    return replace(segment, kinds=kinds, addrs=addrs, values=values,
                   hi=hi + delta)


class TestFaultFreeReplay:
    def test_clean_segment_passes(self, rmw_program, rmw_trace):
        checker = SegmentChecker(rmw_program)
        segment = build_segment(rmw_trace, 40, 200)
        result = checker.check(segment)
        assert result.ok, result.errors
        assert result.entries_checked == segment.hi - segment.lo
        assert result.instructions_executed == 160
        assert len(result.steps) == 160

    def test_segment_from_entry(self, rmw_program, rmw_trace):
        checker = SegmentChecker(rmw_program)
        result = checker.check(build_segment(rmw_trace, 0, 100))
        assert result.ok

    def test_final_segment_with_halt(self, rmw_program, rmw_trace):
        n = len(rmw_trace)
        checker = SegmentChecker(rmw_program)
        result = checker.check(build_segment(rmw_trace, n - 50, n))
        assert result.ok

    def test_every_disjoint_segment_passes(self, rmw_program, rmw_trace):
        """Strong induction across the whole trace: every segment
        validates independently."""
        checker = SegmentChecker(rmw_program)
        step = 97  # deliberately unaligned with the loop body
        n = len(rmw_trace)
        for start in range(0, n, step):
            end = min(start + step, n)
            result = checker.check(build_segment(rmw_trace, start, end))
            assert result.ok, (start, result.errors)

    def test_steps_match_trace(self, rmw_program, rmw_trace):
        checker = SegmentChecker(rmw_program)
        result = checker.check(build_segment(rmw_trace, 10, 60))
        expected = [(rmw_trace.pcs[i], rmw_trace.takens[i] == 1)
                    for i in range(10, 60)]
        assert result.steps == expected


class TestComparisonFailures:
    def test_load_addr_mismatch(self, rmw_program, rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        i = first_entry(segment, LOAD)
        segment = doctored(segment, i,
                           addr=segment.addrs[segment.lo + i] ^ 0x40)
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.LOAD_ADDR_MISMATCH
        assert result.first_error.entry_index == i

    def test_store_value_mismatch(self, rmw_program, rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        i = first_entry(segment, STORE)
        segment = doctored(segment, i,
                           value=segment.values[segment.lo + i] ^ 1)
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.STORE_VALUE_MISMATCH
        assert result.first_error.entry_index == i

    def test_store_addr_mismatch(self, rmw_program, rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        i = first_entry(segment, STORE)
        segment = doctored(segment, i,
                           addr=segment.addrs[segment.lo + i] ^ 0x40)
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.STORE_ADDR_MISMATCH
        assert result.first_error.entry_index == i

    def test_doctored_copy_leaves_the_trace_alone(self, rmw_program,
                                                  rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        doctored(segment, first_entry(segment, STORE), value=0)
        assert SegmentChecker(rmw_program).check(segment).ok

    def test_corrupt_start_checkpoint_detected(self, rmw_program, rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        segment.start_checkpoint = segment.start_checkpoint.with_bit_flip(
            "x6", 2)
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok  # store value or checkpoint comparison fires

    def test_corrupt_end_checkpoint_detected(self, rmw_program, rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        segment.end_checkpoint = segment.end_checkpoint.with_bit_flip(
            "x2", 0)
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.CHECKPOINT_MISMATCH

    def test_corrupt_dead_register_checkpoint_over_detects(
            self, rmw_program, rmw_trace):
        """Over-detection (§IV-I): a checkpoint fault on a register the
        program never reads again is still reported, because liveness is
        unknowable at check time."""
        segment = build_segment(rmw_trace, 40, 200)
        segment.end_checkpoint = segment.end_checkpoint.with_bit_flip(
            "x29", 0)  # x29 is unused by the rmw loop
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.CHECKPOINT_MISMATCH


class TestDivergence:
    def test_missing_entries(self, rmw_program, rmw_trace):
        segment = resized(build_segment(rmw_trace, 40, 200), -3)
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.LOG_DIVERGENCE
        assert result.first_error.detail == (
            "log segment exhausted before replay finished")

    def test_leftover_entries(self, rmw_program, rmw_trace):
        segment = resized(build_segment(rmw_trace, 40, 200), 1)
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.LOG_DIVERGENCE
        assert result.first_error.detail.startswith(
            "1 log entries left unchecked")

    def test_wrong_kind(self, rmw_program, rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        i = first_entry(segment, LOAD)
        segment = doctored(segment, i, kind=STORE)
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.LOG_DIVERGENCE
        assert result.first_error.entry_index == i
        assert result.first_error.detail.startswith(
            "replayed a load but log holds store @")


class TestCheckerSideFaults:
    def test_checker_fault_causes_over_detection(self, rmw_program,
                                                 rmw_trace):
        """A fault in the checker core itself makes its comparison fail:
        reported as an error even though the main execution is correct
        (over-detection, §IV-I)."""
        from repro.detection.faults import FaultSite, TransientFault
        # seq 51 is the loop's ANDI (a writeback-producing instruction
        # whose result feeds the address calculation)
        fault = TransientFault(FaultSite.CHECKER, seq=51, bit=1)
        checker = SegmentChecker(rmw_program, checker_faults=[fault])
        result = checker.check(build_segment(rmw_trace, 40, 200))
        assert not result.ok

    def test_checker_fault_outside_segment_harmless(self, rmw_program,
                                                    rmw_trace):
        from repro.detection.faults import FaultSite, TransientFault
        fault = TransientFault(FaultSite.CHECKER, seq=5000, bit=1)
        checker = SegmentChecker(rmw_program, checker_faults=[fault])
        result = checker.check(build_segment(rmw_trace, 40, 200))
        assert result.ok


class TestNondetReplay:
    def test_nondet_consumed_from_log(self):
        from repro.isa.executor import execute_program
        from repro.isa.instructions import Opcode
        from repro.isa.program import ProgramBuilder
        b = ProgramBuilder("nd")
        out = b.alloc_words(4)
        b.emit(Opcode.MOVI, rd=1, imm=out)
        b.emit(Opcode.RDRAND, rd=2)
        b.emit(Opcode.RDCYCLE, rd=3)
        b.emit(Opcode.ADD, rd=4, rs1=2, rs2=3)
        b.emit(Opcode.ST, rs2=4, rs1=1, imm=0)
        b.emit(Opcode.HALT)
        program = b.build()
        trace = execute_program(program)
        segment = build_segment(trace, 0, len(trace))
        result = SegmentChecker(program).check(segment)
        assert result.ok
        assert result.entries_checked == 3  # RDRAND + RDCYCLE + ST


class TestLoadForwarding:
    """The value column is the load forwarding unit (§IV-C): a LOAD_VALUE
    fault corrupts a loaded value in the register file after the cache
    access, so ``mem_value`` holds the value the unit captured and
    ``mem_used`` the corrupted one."""

    def faulty(self, program):
        # seq 3 + 8 * 10 + 3 is the loop's LD in its tenth iteration
        injector = FaultInjector(
            [TransientFault(FaultSite.LOAD_VALUE, seq=86, bit=4)])
        trace = execute_program(program, fault_injector=injector)
        assert injector.activations
        return trace

    def test_captured_value_catches_the_fault(self, rmw_program):
        trace = self.faulty(rmw_program)
        result = SegmentChecker(rmw_program).check(
            build_segment(trace, 40, 200))
        # the replay loads the good value: the main core's store of the
        # corrupted sum differs from the replayed one
        assert not result.ok
        assert result.first_error.kind is ErrorKind.STORE_VALUE_MISMATCH

    def test_register_file_value_lets_the_fault_escape(self, rmw_program):
        trace = self.faulty(rmw_program)
        result = SegmentChecker(rmw_program).check(
            build_segment(trace, 40, 200, values=trace.mem_used))
        # the replay loads the corrupted value too and agrees with every
        # store and the end checkpoint
        assert result.ok, result.errors
