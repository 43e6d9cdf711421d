"""Rollback-and-re-execute recovery (the paper's future-work extension).

Given a detected error, recovery proceeds exactly as the lock-step
replacement deployments the paper targets would:

1. the detection system reports the first failing segment (strong
   induction identifies the earliest error once all prior checks pass);
2. execution state is **rolled back** to the latest verified snapshot at
   or before that segment's start;
3. the program **re-executes** from the snapshot (the transient fault,
   by definition, does not recur; a hard fault would trip detection
   again, which callers can observe and escalate — e.g. retire the core).

This module drives the whole loop end to end, using the real detection
pipeline for both the failing run and the verification of the re-run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.detection.lslog import segment_close
from repro.detection.system import DetectionRunResult, run_with_detection
from repro.isa.executor import Machine, STORE, Trace, execute_program
from repro.isa.program import Program
from repro.recovery.snapshots import RecoverySnapshot, SnapshotStore
from repro.detection.checkpoint import ArchStateTracker


@dataclass(frozen=True)
class RecoveryOutcome:
    """Result of one detect→rollback→re-execute cycle."""

    detected: bool
    #: commit seq rolled back to (None when nothing was detected)
    rollback_seq: int | None
    #: instructions re-executed after rollback
    replayed_instructions: int
    #: the re-run validated cleanly
    recovered: bool
    #: final architectural state matches a fault-free execution
    state_correct: bool


def build_snapshots(trace: Trace, segment_seqs: list[int]) -> SnapshotStore:
    """Construct rollback snapshots at the given commit boundaries."""
    tracker = ArchStateTracker()
    store = SnapshotStore(
        trace.program.initial_memory(),
        tracker.snapshot(trace.program.entry))
    boundaries = iter(sorted(segment_seqs))
    next_boundary = next(boundaries, None)
    pcs = trace.pcs
    dsts = trace.dsts
    mem_off = trace.mem_off
    mem_kind = trace.mem_kind
    mem_addr = trace.mem_addr
    mem_value = trace.mem_value
    for i in range(len(pcs)):
        if next_boundary is not None and i == next_boundary:
            store.take_snapshot(i, tracker.snapshot(pcs[i]))
            next_boundary = next(boundaries, None)
        for j in range(mem_off[i], mem_off[i + 1]):
            if mem_kind[j] == STORE:
                store.apply_store(mem_addr[j], mem_value[j])
        tracker.apply_dsts(dsts[i])
    return store


def resume_from(program: Program, snapshot: RecoverySnapshot,
                max_instructions: int = 20_000_000) -> Machine:
    """Re-execute ``program`` from ``snapshot`` to completion."""
    machine = Machine(program, memory=snapshot.memory.copy(),
                      pc=snapshot.checkpoint.pc)
    machine.set_registers(list(snapshot.checkpoint.xregs),
                          list(snapshot.checkpoint.fregs))
    while not machine.halted:
        if machine.instr_count >= max_instructions:
            raise RuntimeError("re-execution did not terminate")
        machine.step()
    return machine


def detect_and_recover(program: Program, faulty_trace: Trace,
                       config: SystemConfig) -> RecoveryOutcome:
    """Run detection on ``faulty_trace``; on error, roll back and re-run.

    Returns a :class:`RecoveryOutcome` whose ``state_correct`` compares
    the recovered final state against a reference fault-free execution.
    """
    result: DetectionRunResult = run_with_detection(faulty_trace, config)
    reference = execute_program(program)

    if not result.report.detected:
        clean = (faulty_trace.final_xregs == reference.final_xregs
                 and faulty_trace.final_fregs == reference.final_fregs)
        return RecoveryOutcome(
            detected=False, rollback_seq=None, replayed_instructions=0,
            recovered=clean, state_correct=clean)

    # 1. first failing segment, in strong-induction order
    position = result.report.first_error_position()
    assert position is not None
    failing_segment = position[0]

    # 2. snapshots exist at every segment boundary the detection system
    #    created; roll back to the boundary *before* the failing segment
    #    (boundaries are recomputed by iterating the log's closure rule
    #    over the committed stream, so the indices line up with the
    #    report's)
    seg_starts = _segment_starts(faulty_trace, config)
    store = build_snapshots(faulty_trace, seg_starts)
    store.mark_verified_up_to(
        seg_starts[failing_segment] if failing_segment < len(seg_starts)
        else 0)
    snapshot = store.latest_verified()

    # 3. re-execute from the verified snapshot
    machine = resume_from(program, snapshot)
    replayed = machine.instr_count

    recovered = (machine.xregs == reference.final_xregs
                 and machine.fregs == reference.final_fregs)
    # memory must also converge on every word the reference wrote
    state_correct = recovered and all(
        machine.memory.load(addr) == value
        for addr, value in reference.memory.items())

    return RecoveryOutcome(
        detected=True, rollback_seq=snapshot.seq,
        replayed_instructions=replayed, recovered=recovered,
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
