"""Rollback-and-re-execute recovery (the paper's future-work extension).

Given a detected error, recovery proceeds exactly as the lock-step
replacement deployments the paper targets would:

1. the detection system reports the first failing segment (strong
   induction identifies the earliest error once all prior checks pass);
2. execution state is **rolled back** to that segment's start, the last
   boundary every earlier check has verified;
3. the program **re-executes** from there (the transient fault, by
   definition, does not recur; a hard fault would trip detection
   again, which callers can observe and escalate — e.g. retire the core).

Every step runs on shared machinery: a verdict-only detection run, the
rolled-back state rebuilt by :func:`~repro.isa.executor.fork_state` from
the faulty trace's columns (or, below a forked run's fork seq, from the
golden trace it was forked from), and a re-run through
:func:`~repro.isa.executor.execute_program`'s commit loop.  The re-run
is then compared with the fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.detection.lslog import segment_close
from repro.detection.system import run_with_detection
from repro.isa.executor import (
    Trace,
    execute_program,
    fork_state,
    same_final_registers,
)


@dataclass(frozen=True)
class RecoveryOutcome:
    """Result of one detect→rollback→re-execute cycle."""

    detected: bool
    #: commit seq rolled back to (None when nothing was detected)
    rollback_seq: int | None
    #: instructions re-executed after rollback
    replayed_instructions: int
    #: the re-run's final registers match the fault-free run's
    recovered: bool
    #: final architectural state matches a fault-free execution
    state_correct: bool


def detect_and_recover(clean: Trace, faulty: Trace,
                       config: SystemConfig) -> RecoveryOutcome:
    """Run detection on ``faulty``; on error, roll back and re-run.

    ``clean`` is the fault-free run of the same program.  The outcome's
    ``recovered`` compares final registers with it, and
    ``state_correct`` also every memory word it holds.  The re-run's
    rows are numbered from 0, so a re-executed RDRAND or RDCYCLE reads
    the count of rows since the rollback, not its own seq.
    """
    verdict = run_with_detection(faulty, config, verdict_only=True)
    if not verdict.detected:
        same = same_final_registers(faulty, clean)
        return RecoveryOutcome(
            detected=False, rollback_seq=None, replayed_instructions=0,
            recovered=same, state_correct=same)

    failing_segment = verdict.first_error_position[0]
    rollback_seq = _segment_starts(faulty, config)[failing_segment]
    # a forked run's rows below its fork seq are spliced golden rows, so
    # the golden trace (and its keyframes) holds the state there
    source = (faulty.fork_of if faulty.fork_of is not None
              and rollback_seq <= faulty.fork_seq else faulty)
    rerun = execute_program(faulty.program,
                            start=fork_state(source, rollback_seq))
    recovered = same_final_registers(rerun, clean)
    state_correct = recovered and all(
        rerun.memory.load(addr) == value
        for addr, value in clean.memory.items())
    return RecoveryOutcome(
        detected=True, rollback_seq=rollback_seq,
        replayed_instructions=len(rerun), recovered=recovered,
        state_correct=state_correct)


def _segment_starts(trace: Trace, config: SystemConfig) -> list[int]:
    """Commit seqs at which the detection system opened each segment it
    dispatched.

    Iterates :func:`repro.detection.lslog.segment_close`, the one rule
    the detection hook closes its segments by, from row 0 over the
    committed stream.  Recovery runs take no interrupts, so neither does
    this.
    """
    capacity = config.detection.segment_entries(config.checker.num_cores)
    timeout = config.detection.instruction_timeout
    total = len(trace)
    starts = []
    start = 0
    while start < total:
        starts.append(start)
        start = segment_close(trace.mem_off, start, total, capacity,
                              timeout)[0]
    return starts
