"""Checker-core functional replay and validation (paper §IV-B).

A checker core starts from a segment's start register checkpoint and
re-executes the original instruction stream.  Loads do not touch memory:
the next entry of the segment's load-store log supplies the value, and
hardware compares the *address* the checker computed against the logged
one.  Stores compare both address and data.  Non-deterministic results
(RDRAND/RDCYCLE) are consumed from the log.  The log is a view of the
trace's memory columns (:class:`repro.detection.lslog.Segment`), so the
ports read entry ``i`` straight from ``kinds``, ``addrs`` and ``values``
at ``lo + i``; only an error report formats an entry.  When the checker
has executed as many instructions as the main core committed in the
segment (or the stream ends), the architectural register file is
compared bit-exactly against the end checkpoint.

Detection is therefore performed by *real comparisons*, not by an oracle:
an injected fault is caught only if one of these hardware checks actually
fires — which is exactly the paper's coverage argument (checks on stores,
load addresses, and end-of-segment register state, composed by strong
induction).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import ExecutionError, ReproError
from repro.detection.lslog import Segment
from repro.isa.blocks import STATS, block_exec_enabled, block_table
from repro.isa.executor import LOAD, Machine, NONDET, STORE, bound_handlers
from repro.isa.instructions import Opcode
from repro.isa.memory_image import MemoryImage, bits_to_float, float_to_bits
from repro.isa.program import Program


class ErrorKind(enum.Enum):
    """What comparison failed."""

    LOAD_ADDR_MISMATCH = "load_addr_mismatch"
    STORE_ADDR_MISMATCH = "store_addr_mismatch"
    STORE_VALUE_MISMATCH = "store_value_mismatch"
    #: The replayed stream diverged from the log structure: wrong entry
    #: kind, log exhausted early, entries left over, or the instruction
    #: timeout hit before every logged operation was reproduced.
    LOG_DIVERGENCE = "log_divergence"
    CHECKPOINT_MISMATCH = "checkpoint_mismatch"
    #: The replay itself faulted (e.g. corrupted control flow ran off the
    #: program); the checker flags the segment as erroneous.
    REPLAY_FAULT = "replay_fault"


@dataclass(frozen=True)
class CheckError:
    """A failed check within one segment."""

    kind: ErrorKind
    segment_index: int
    #: index of the offending log entry within the segment (None for
    #: checkpoint/stream-level errors)
    entry_index: int | None
    detail: str


@dataclass
class CheckResult:
    """Outcome of replaying one segment on a checker core."""

    segment_index: int
    ok: bool
    errors: list[CheckError] = field(default_factory=list)
    #: replayed instruction stream as (pc, taken) pairs, for the timing model
    steps: list[tuple[int, bool]] = field(default_factory=list)
    #: number of log entries validated before stopping
    entries_checked: int = 0
    instructions_executed: int = 0


#: Shared placeholder memory for replay machines (never accessed).
_NO_MEMORY = MemoryImage()


class _LogMismatch(ReproError):
    """Internal control flow: a hardware check failed during replay."""

    def __init__(self, error: CheckError) -> None:
        super().__init__(error.detail)
        self.error = error


class SegmentChecker:
    """Replays and validates load-store-log segments for one program.

    A checker is fixed when it is built: :meth:`check` builds its ports
    and :class:`Machine` per call and only reads the handler table and
    the checker faults, so forked detection hooks share one checker.
    """

    def __init__(self, program: Program,
                 checker_faults: list | None = None) -> None:
        self.program = program
        # the program-wide handler table (memoised on the program by
        # bound_handlers); held directly so every segment replay shares
        # one reference instead of fetching it through its Machine
        self._steps = bound_handlers(program)
        #: CHECKER-site TransientFaults keyed by global dynamic seq
        self._faults_by_seq: dict[int, list] = {}
        for fault in checker_faults or ():
            self._faults_by_seq.setdefault(fault.seq, []).append(fault)

    def check(self, segment: Segment) -> CheckResult:
        """Replay ``segment`` and run every hardware comparison."""
        start = segment.start_checkpoint
        end = segment.end_checkpoint
        lo, size = segment.lo, segment.hi - segment.lo
        kinds, addrs, values = segment.kinds, segment.addrs, segment.values
        instr_budget = segment.end_seq - segment.start_seq

        result = CheckResult(segment_index=segment.index, ok=True)
        cursor = 0  # next log entry to consume

        def load_port(addr: int) -> tuple[int, int]:
            nonlocal cursor
            if cursor >= size:
                raise _LogMismatch(CheckError(
                    ErrorKind.LOG_DIVERGENCE, segment.index, None,
                    "log segment exhausted before replay finished"))
            j = lo + cursor
            if kinds[j] != LOAD:
                raise _LogMismatch(CheckError(
                    ErrorKind.LOG_DIVERGENCE, segment.index, cursor,
                    f"replayed a load but log holds "
                    f"{segment.describe(cursor)}"))
            if addrs[j] != addr:
                raise _LogMismatch(CheckError(
                    ErrorKind.LOAD_ADDR_MISMATCH, segment.index, cursor,
                    f"load address {addr:#x} != logged {addrs[j]:#x}"))
            cursor += 1
            result.entries_checked = cursor
            return addr, values[j]

        def store_port(addr: int, value: int) -> tuple[int, int]:
            nonlocal cursor
            if cursor >= size:
                raise _LogMismatch(CheckError(
                    ErrorKind.LOG_DIVERGENCE, segment.index, None,
                    "log segment exhausted before replay finished"))
            j = lo + cursor
            if kinds[j] != STORE:
                raise _LogMismatch(CheckError(
                    ErrorKind.LOG_DIVERGENCE, segment.index, cursor,
                    f"replayed a store but log holds "
                    f"{segment.describe(cursor)}"))
            if addrs[j] != addr:
                raise _LogMismatch(CheckError(
                    ErrorKind.STORE_ADDR_MISMATCH, segment.index, cursor,
                    f"store address {addr:#x} != logged {addrs[j]:#x}"))
            if values[j] != value:
                raise _LogMismatch(CheckError(
                    ErrorKind.STORE_VALUE_MISMATCH, segment.index, cursor,
                    f"store value {value:#x} != logged {values[j]:#x}"))
            cursor += 1
            result.entries_checked = cursor
            return addr, value

        def nondet_port(op: Opcode) -> int:
            nonlocal cursor
            if cursor >= size or kinds[lo + cursor] != NONDET:
                raise _LogMismatch(CheckError(
                    ErrorKind.LOG_DIVERGENCE, segment.index,
                    cursor if cursor < size else None,
                    "non-deterministic result missing from log"))
            value = values[lo + cursor]
            cursor += 1
            result.entries_checked = cursor
            return value

        # the replay never touches memory (every access goes through the
        # log ports), so all segments share one empty image
        machine = Machine(
            self.program,
            memory=_NO_MEMORY,
            load_port=load_port,
            store_port=store_port,
            nondet_port=nondet_port,
            pc=start.pc,
        )
        machine.set_registers(list(start.xregs), list(start.fregs))

        executed = 0
        global_seq = segment.start_seq
        # drive the pre-bound handler table directly: the replay loop is
        # the checker-core hot path, so it skips the step() wrapper just
        # like the main-core executor does
        steps = self._steps
        faults_by_seq = self._faults_by_seq
        steps_out = result.steps
        # the block-compiled fast path replays whole basic blocks via
        # their generated bodies, entered only at static block leaders
        # and only when the block's static length fits the remaining
        # budget (so a block is compiled only when it runs); a segment
        # starting mid-block replays on handlers up to the next leader.
        # CHECKER-site faults strike individual replayed writebacks, so
        # they keep the per-instruction loop
        replays = lengths = ()
        if not faults_by_seq and block_exec_enabled():
            table = block_table(self.program)
            replays, lengths = table.replays, table.lengths
        tlen = len(replays)
        try:
            while executed < instr_budget and not machine.halted:
                pc = machine.pc
                if pc < tlen:
                    replay = replays[pc]
                    n = lengths[pc]
                    if replay is not None and n <= instr_budget - executed:
                        replay(machine, steps_out)
                        executed += n
                        global_seq += n
                        STATS.block_instrs += n
                        STATS.block_calls += 1
                        continue
                try:
                    fn = steps[pc]
                except IndexError:
                    # deliberately ExecutionError (not the executor's
                    # AssemblyError): replayed control flow running off
                    # the program is a checker *finding* — the handler
                    # below classifies it as REPLAY_FAULT
                    raise ExecutionError(
                        f"instruction fetch out of range: pc={pc}") from None
                dsts, _mem, taken = fn(machine)
                machine.instr_count += 1
                if faults_by_seq:
                    faults = faults_by_seq.get(global_seq)
                    if faults:
                        self._corrupt(machine, dsts, faults)
                steps_out.append((pc, bool(taken)))
                executed += 1
                global_seq += 1
        except _LogMismatch as mismatch:
            # a block raising mid-way has already appended its completed
            # rows' steps, so the step list is the executed count
            executed = len(steps_out)
            result.ok = False
            result.errors.append(mismatch.error)
        except ExecutionError as exc:
            executed = len(steps_out)
            result.ok = False
            result.errors.append(CheckError(
                ErrorKind.REPLAY_FAULT, segment.index, None,
                f"replay faulted: {exc}"))
        result.instructions_executed = executed
        STATS.total_instrs += executed

        if result.ok and machine.halted and executed < instr_budget:
            result.ok = False
            result.errors.append(CheckError(
                ErrorKind.LOG_DIVERGENCE, segment.index, None,
                f"replay halted after {executed} of {instr_budget} "
                f"instructions"))

        if result.ok and cursor != size:
            # the instruction-count timeout fired on the checker before all
            # logged operations were reproduced: divergence (§IV-J)
            result.ok = False
            result.errors.append(CheckError(
                ErrorKind.LOG_DIVERGENCE, segment.index, cursor,
                f"{size - cursor} log entries left unchecked after "
                f"{executed} instructions"))

        if result.ok:
            diffs = end.mismatches(machine.xregs, machine.fregs)
            if diffs:
                result.ok = False
                result.errors.append(CheckError(
                    ErrorKind.CHECKPOINT_MISMATCH, segment.index, None,
                    f"register checkpoint mismatch: {', '.join(diffs[:8])}"))
            elif machine.pc != end.pc and not machine.halted:
                result.ok = False
                result.errors.append(CheckError(
                    ErrorKind.CHECKPOINT_MISMATCH, segment.index, None,
                    f"PC mismatch: {machine.pc} != checkpoint {end.pc}"))
        return result

    @staticmethod
    def _corrupt(machine: Machine, dsts: tuple, faults: list) -> None:
        """Apply CHECKER-site faults to the replayed writeback."""
        for fault in faults:
            if not dsts:
                continue
            is_fp, idx, value = dsts[0]
            if is_fp:
                machine.fregs[idx] = bits_to_float(
                    float_to_bits(value) ^ (1 << fault.bit))
            elif idx != 0:
                machine.xregs[idx] = (value ^ (1 << fault.bit))
