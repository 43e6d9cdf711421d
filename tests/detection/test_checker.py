"""Tests for checker-core replay and validation.

These build segments by hand from real traces so each hardware comparison
(load address, store address/value, checkpoint, divergence) is exercised
in isolation.
"""

import pytest

from repro.detection.checker import ErrorKind, SegmentChecker
from repro.detection.checkpoint import ArchStateTracker
from repro.detection.lslog import CloseReason, LogEntry, Segment
from repro.isa.executor import LOAD, STORE


def build_segment(trace, start_seq, end_seq, index=0, slot=0):
    """Construct a closed segment covering trace[start_seq:end_seq]."""
    tracker = ArchStateTracker()
    tracker.apply_rows(trace.dsts, 0, start_seq)
    start = tracker.snapshot(trace.pcs[start_seq])
    # LOAD and STORE log address + value; NONDET logs the value at
    # address 0 — exactly the column contents
    entries = [LogEntry(trace.mem_kind[j], trace.mem_addr[j],
                        trace.mem_value[j], 0)
               for j in range(trace.mem_off[start_seq],
                              trace.mem_off[end_seq])]
    tracker.apply_rows(trace.dsts, start_seq, end_seq)
    end = tracker.snapshot(trace.next_pc_of(end_seq - 1))
    segment = Segment(index=index, slot=slot, start_checkpoint=start,
                      start_seq=start_seq, entries=entries)
    segment.close_reason = CloseReason.FULL
    segment.end_checkpoint = end
    segment.end_seq = end_seq
    return segment


class TestFaultFreeReplay:
    def test_clean_segment_passes(self, rmw_program, rmw_trace):
        checker = SegmentChecker(rmw_program)
        segment = build_segment(rmw_trace, 40, 200)
        result = checker.check(segment)
        assert result.ok, result.errors
        assert result.entries_checked == len(segment.entries)
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
        for i, entry in enumerate(segment.entries):
            if entry.kind == LOAD:
                segment.entries[i] = LogEntry(LOAD, entry.addr ^ 0x40,
                                              entry.value, 0)
                break
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.LOAD_ADDR_MISMATCH

    def test_store_value_mismatch(self, rmw_program, rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        for i, entry in enumerate(segment.entries):
            if entry.kind == STORE:
                segment.entries[i] = LogEntry(STORE, entry.addr,
                                              entry.value ^ 1, 0)
                break
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.STORE_VALUE_MISMATCH

    def test_store_addr_mismatch(self, rmw_program, rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        for i, entry in enumerate(segment.entries):
            if entry.kind == STORE:
                segment.entries[i] = LogEntry(STORE, entry.addr ^ 0x40,
                                              entry.value, 0)
                break
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.STORE_ADDR_MISMATCH

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
        segment = build_segment(rmw_trace, 40, 200)
        del segment.entries[-3:]
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.LOG_DIVERGENCE

    def test_leftover_entries(self, rmw_program, rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        segment.entries.append(LogEntry(LOAD, 0x9999, 0, 0))
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.LOG_DIVERGENCE

    def test_wrong_kind(self, rmw_program, rmw_trace):
        segment = build_segment(rmw_trace, 40, 200)
        for i, entry in enumerate(segment.entries):
            if entry.kind == LOAD:
                segment.entries[i] = LogEntry(STORE, entry.addr,
                                              entry.value, 0)
                break
        result = SegmentChecker(rmw_program).check(segment)
        assert not result.ok
        assert result.first_error.kind is ErrorKind.LOG_DIVERGENCE

    def test_unclosed_segment_rejected(self, rmw_program, rmw_trace):
        from repro.common.errors import ReproError
        tracker = ArchStateTracker()
        segment = Segment(index=0, slot=0,
                          start_checkpoint=tracker.snapshot(0), start_seq=0)
        with pytest.raises(ReproError):
            SegmentChecker(rmw_program).check(segment)


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
