"""Tests for the rollback-recovery extension (paper future work)."""

from unittest import mock

import pytest

from repro.common.config import default_config
from repro.detection.checker import SegmentChecker
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.detection.system import run_with_detection
from repro.harness.campaign import JobSpec, execute_job
from repro.isa import executor
from repro.isa.executor import (
    NONDET,
    execute_forked,
    execute_program,
    fork_state,
)
from repro.isa.instructions import Opcode
from repro.isa.memory_image import float_to_bits
from repro.isa.program import ProgramBuilder
from repro.recovery import rollback
from repro.recovery.rollback import _segment_starts, detect_and_recover
from repro.workloads.suite import BENCHMARK_ORDER, benchmark_trace

from tests.conftest import build_rmw_loop, mid_trace_faults, tripwire

#: rmw-loop fault seqs: the store of iteration 200, the load-add of 150
STORE_SEQ = 3 + 8 * 200 + 5
RESULT_SEQ = 3 + 8 * 150 + 4


@pytest.fixture(scope="module")
def program():
    return build_rmw_loop(iterations=400)


@pytest.fixture(scope="module")
def clean(program):
    return execute_program(program)


def faulty_run(program, fault):
    return execute_program(program, fault_injector=FaultInjector([fault]))


def state_form(state):
    """A fork state's registers (FP ones as bit patterns), memory words
    and pc, copied: a re-run takes over the state's memory image."""
    return (list(state.xregs), [float_to_bits(v) for v in state.fregs],
            dict(state.memory.items()), state.pc)


def build_rdcycle_loop(iterations: int = 300):
    """A loop that reads the cycle counter into x7 on every iteration."""
    b = ProgramBuilder("rdcycle")
    b.emit(Opcode.MOVI, rd=2, imm=0)
    b.emit(Opcode.MOVI, rd=3, imm=iterations)
    b.label("loop")
    b.emit(Opcode.RDCYCLE, rd=7)
    b.emit(Opcode.ADD, rd=8, rs1=8, rs2=7)
    b.emit(Opcode.ADDI, rd=2, rs1=2, imm=1)
    b.emit(Opcode.BLT, rs1=2, rs2=3, target="loop")
    b.emit(Opcode.HALT)
    return b.build()


class TestResume:
    @pytest.mark.parametrize("pick", [0, 1, "middle", -1])
    def test_rerun_from_segment_start_matches(self, program, clean, pick):
        starts = _segment_starts(clean, default_config())
        seq = starts[len(starts) // 2 if pick == "middle" else pick]
        rerun = execute_program(program, start=fork_state(clean, seq))
        assert len(rerun) == len(clean) - seq
        assert list(rerun.pcs) == list(clean.pcs[seq:])
        assert rerun.final_xregs == clean.final_xregs
        assert [float_to_bits(v) for v in rerun.final_fregs] == \
            [float_to_bits(v) for v in clean.final_fregs]
        assert dict(rerun.memory.items()) == dict(clean.memory.items())

    def test_rows_are_numbered_from_zero(self):
        """A re-run numbers its rows from 0, so RDCYCLE reads the count of
        rows since the start state, not the row's seq in the full run
        (ROADMAP item 14 changes this)."""
        program = build_rdcycle_loop()
        full = execute_program(program)
        seq = len(full) // 2
        rerun = execute_program(program, start=fork_state(full, seq))
        for trace in (full, rerun):
            nondet = [(row, trace.mem_value[trace.mem_off[row]])
                      for row in range(len(trace))
                      if NONDET in trace.mem_kind[
                          trace.mem_off[row]:trace.mem_off[row + 1]]]
            assert nondet and all(value == row for row, value in nondet)
        assert rerun.final_xregs[8] != full.final_xregs[8]


class TestDetectAndRecover:
    def test_transient_fault_recovered(self, program, clean):
        faulty = faulty_run(
            program, TransientFault(FaultSite.STORE_VALUE, seq=STORE_SEQ,
                                    bit=4))
        outcome = detect_and_recover(clean, faulty, default_config())
        assert outcome.detected
        assert outcome.recovered
        assert outcome.state_correct
        assert outcome.rollback_seq is not None
        assert outcome.replayed_instructions == \
            len(clean) - outcome.rollback_seq

    def test_rollback_point_is_before_fault(self, program, clean):
        faulty = faulty_run(
            program, TransientFault(FaultSite.STORE_VALUE, seq=STORE_SEQ,
                                    bit=4))
        outcome = detect_and_recover(clean, faulty, default_config())
        assert outcome.rollback_seq <= STORE_SEQ

    @pytest.mark.parametrize("fault", [
        TransientFault(FaultSite.STORE_VALUE, seq=STORE_SEQ, bit=4),
        TransientFault(FaultSite.RESULT, seq=RESULT_SEQ, bit=9),
    ])
    def test_rolls_back_to_the_first_failing_segment(self, program, clean,
                                                     fault):
        """The rollback seq is the start of the first failing segment of
        a complete detection run, and the one re-execution starts from
        the fault-free state at that seq; detection runs verdict-only."""
        config = default_config()
        faulty = faulty_run(program, fault)
        starts = {}
        check = SegmentChecker.check

        def check_spy(checker, segment):
            starts[segment.index] = segment.start_seq
            return check(checker, segment)

        with mock.patch.object(SegmentChecker, "check", check_spy):
            report = run_with_detection(faulty, config).report
        failing = report.first_error_position()[0]
        assert failing > 0

        detections, states = [], []

        def detection_spy(trace, config, **kwargs):
            detections.append(kwargs)
            return run_with_detection(trace, config, **kwargs)

        def execute_spy(program, **kwargs):
            states.append(state_form(kwargs["start"]))
            return execute_program(program, **kwargs)

        with mock.patch.object(rollback, "run_with_detection",
                               detection_spy), \
                mock.patch.object(rollback, "execute_program", execute_spy):
            outcome = detect_and_recover(clean, faulty, config)
        assert detections == [{"verdict_only": True}]
        assert outcome.rollback_seq == starts[failing]
        assert states == [state_form(fork_state(clean, starts[failing]))]
        assert outcome.state_correct

    @pytest.mark.parametrize("fault", [
        TransientFault(FaultSite.STORE_VALUE, seq=STORE_SEQ, bit=4),
        TransientFault(FaultSite.RESULT, seq=RESULT_SEQ, bit=9),
    ])
    def test_forked_run_rolls_back_on_the_clean_trace(self, clean, fault):
        """A forked run's rows below its fork seq are the clean run's, so
        the rolled-back state is taken from the clean trace: no keyframes
        are built over the faulty trace, and the state is the one the
        faulty trace's columns give."""
        faulty = execute_forked(clean, FaultInjector([fault]))
        build = executor.build_keyframes

        def guarded(trace, *args, **kwargs):
            assert trace is not faulty, "keyframes of a faulty trace"
            return build(trace, *args, **kwargs)

        with mock.patch.object(executor, "build_keyframes", guarded):
            outcome = detect_and_recover(clean, faulty, default_config())
        assert outcome.detected and outcome.state_correct
        seq = outcome.rollback_seq
        assert 0 < seq <= faulty.fork_seq
        assert state_form(fork_state(clean, seq)) == \
            state_form(fork_state(faulty, seq))

    @pytest.mark.parametrize("workload", BENCHMARK_ORDER)
    def test_forked_recovery_equals_complete_recovery(self, workload):
        """On every suite workload a forked run recovers exactly as the
        complete faulty run does, and a detected fault rolls back at or
        before the fork seq on a state no keyframes of the forked trace
        were built for."""
        clean = benchmark_trace(workload, "small")
        config = default_config()
        build = executor.build_keyframes

        def guarded(trace, *args, **kwargs):
            assert trace.fork_of is None, "keyframes of a forked trace"
            return build(trace, *args, **kwargs)

        detected = 0
        for fault in mid_trace_faults(workload):
            complete = detect_and_recover(
                clean, faulty_run(clean.program, fault), config)
            forked = execute_forked(clean, FaultInjector([fault]))
            with mock.patch.object(executor, "build_keyframes", guarded):
                outcome = detect_and_recover(clean, forked, config)
            assert outcome == complete
            if outcome.detected:
                detected += 1
                assert outcome.rollback_seq <= forked.fork_seq
        assert detected

    def test_fault_free_run_reports_clean(self, program, clean):
        with mock.patch.object(rollback, "execute_program",
                               tripwire("execute_program")):
            outcome = detect_and_recover(clean, clean, default_config())
        assert not outcome.detected
        assert outcome.recovered
        assert outcome.state_correct
        assert outcome.replayed_instructions == 0

    def test_result_fault_recovered(self, program, clean):
        faulty = faulty_run(
            program, TransientFault(FaultSite.RESULT, seq=RESULT_SEQ, bit=9))
        outcome = detect_and_recover(clean, faulty, default_config())
        assert outcome.detected
        assert outcome.state_correct

    def test_early_fault_rolls_to_entry(self, program, clean):
        faulty = faulty_run(
            program, TransientFault(FaultSite.STORE_VALUE, seq=3 + 5, bit=4))
        outcome = detect_and_recover(clean, faulty, default_config())
        assert outcome.detected
        assert outcome.rollback_seq == 0  # first segment: program entry
        assert outcome.state_correct


#: the swaptions recovery job whose re-run reads RDRAND with the wrong
#: row numbers
SWAPTIONS_JOB = JobSpec(
    "recovery", "swaptions", "small", default_config(),
    fault=TransientFault(FaultSite.STORE_VALUE, seq=1581, bit=5))


@pytest.fixture(scope="module")
def swaptions_record():
    return execute_job(SWAPTIONS_JOB)


def test_swaptions_fault_is_detected_and_rolled_back(swaptions_record):
    assert swaptions_record["activated"] and swaptions_record["detected"]
    assert swaptions_record["rollback_seq"] == 1365


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 14: re-executed RDRAND/RDCYCLE rows are numbered "
           "from the rollback seq's row 0, not from their own seq")
def test_swaptions_recovery_ends_state_correct(swaptions_record):
    assert swaptions_record["state_correct"]
