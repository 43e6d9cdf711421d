"""Checker-core functional replay and validation (paper §IV-B).

A checker core starts from a segment's start register checkpoint and
re-executes the original instruction stream.  Loads do not touch memory:
the next entry of the segment's load-store log supplies the value, and
hardware compares the *address* the checker computed against the logged
one.  Stores compare both address and data.  Non-deterministic results
(RDRAND/RDCYCLE) are consumed from the log.  When the checker has executed
as many instructions as the main core committed in the segment (or the
stream ends), the architectural register file is compared bit-exactly
against the end checkpoint.

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
from repro.isa.executor import LOAD, Machine, NONDET, STORE, Trace, bound_handlers
from repro.isa.instructions import Opcode
from repro.isa.memory_image import MemoryImage, bits_to_float, float_to_bits
from repro.isa.program import Program


def _columns_equal(a, b, start: int, stop: int) -> bool:
    """Whole-slice equality of two trace columns.

    Columns may be ``array`` objects (live executions) or memoryviews
    over a mapped golden envelope; slices of either compare by value,
    element by element, in C.
    """
    return a[start:stop] == b[start:stop]


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

    @property
    def first_error(self) -> CheckError | None:
        return self.errors[0] if self.errors else None


#: Shared placeholder memory for replay machines (never accessed).
_NO_MEMORY = MemoryImage()


class _LogMismatch(ReproError):
    """Internal control flow: a hardware check failed during replay."""

    def __init__(self, error: CheckError) -> None:
        super().__init__(error.detail)
        self.error = error


class SegmentChecker:
    """Replays and validates load-store-log segments for one program."""

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
        # columnar fast-path context (fork-point fault jobs only)
        self._trace: Trace | None = None
        self._golden: Trace | None = None
        self._fork_seq = 0
        # (start_seq, end_seq) -> passing pre-fork CheckResult, shared by
        # reference across the forks of one timing-splice cursor so a
        # batch cell compares each golden segment range exactly once
        self._prefix_memo: dict | None = None

    def bind_fork(self, trace: Trace, golden: Trace, fork_seq: int) -> None:
        """Enable the columnar fast path for ``trace``'s pre-fork rows.

        ``trace`` is the run being checked, whose rows ``[0, fork_seq)``
        were spliced from ``golden``.  A segment lying entirely before
        the fork seq can then be verified by a whole-slice comparison of
        the spliced columns against the golden columns — one equality
        sweep instead of a per-instruction Python replay.  Segments at
        or after the fork (and any segment a CHECKER-site fault strikes)
        keep the full replay path.
        """
        self._trace = trace
        self._golden = golden
        self._fork_seq = fork_seq

    def enable_prefix_memo(self) -> None:
        """Start memoising passing pre-fork columnar results.

        Only the timing-splice cursor turns this on: its forks all check
        the same golden prefix, segmented at the same boundaries, so the
        whole-slice comparisons (and the steps list built from the golden
        columns) are identical across faults in a batch cell.  A cached
        result is only served when the segment index matches, and any
        segment that fails the columnar gate still takes the replay path.
        """
        if self._prefix_memo is None:
            self._prefix_memo = {}

    def clone(self) -> "SegmentChecker":
        """Copy for a forked continuation (fork support).

        The program, handler table, trace bindings, and prefix memo are
        shared — all either immutable or append-only caches whose entries
        are valid for every fork of the same golden run.  The fault map is
        copied (its lists are never mutated after construction).
        """
        twin = SegmentChecker.__new__(SegmentChecker)
        twin.program = self.program
        twin._steps = self._steps
        twin._faults_by_seq = dict(self._faults_by_seq)
        twin._trace = self._trace
        twin._golden = self._golden
        twin._fork_seq = self._fork_seq
        twin._prefix_memo = self._prefix_memo
        return twin

    def _check_columnar(self, segment: Segment) -> CheckResult | None:
        """The pre-fork fast path; None means \"use the replay path\".

        This is still a *real comparison*, not an oracle: every column
        the replay would reproduce (pcs, writebacks, branch outcomes,
        the memory-operation CSR block) and every logged entry is
        compared against the golden trace.  Any mismatch falls back to
        the replay path, which classifies the error exactly as it would
        have without the fast path.
        """
        trace, golden = self._trace, self._golden
        start, end = segment.start_seq, segment.end_seq
        lo, hi = trace.mem_off[start], trace.mem_off[end]
        if not (_columns_equal(trace.pcs, golden.pcs, start, end)
                and _columns_equal(trace.takens, golden.takens, start, end)
                and trace.dsts[start:end] == golden.dsts[start:end]
                and _columns_equal(trace.mem_off, golden.mem_off,
                                   start, end + 1)
                and _columns_equal(trace.mem_kind, golden.mem_kind, lo, hi)
                and _columns_equal(trace.mem_addr, golden.mem_addr, lo, hi)
                and _columns_equal(trace.mem_value, golden.mem_value,
                                   lo, hi)
                and _columns_equal(trace.mem_used, golden.mem_used,
                                   lo, hi)):
            return None
        entries = segment.entries
        if len(entries) != hi - lo:
            return None
        mem_kind, mem_addr = golden.mem_kind, golden.mem_addr
        mem_value = golden.mem_value
        for k, entry in enumerate(entries):
            j = lo + k
            if (entry.kind != mem_kind[j] or entry.addr != mem_addr[j]
                    or entry.value != mem_value[j]):
                return None
        result = CheckResult(segment_index=segment.index, ok=True)
        result.steps = list(zip(golden.pcs[start:end],
                                map((1).__eq__, golden.takens[start:end])))
        result.entries_checked = len(entries)
        result.instructions_executed = end - start
        return result

    def check(self, segment: Segment) -> CheckResult:
        """Replay ``segment`` and run every hardware comparison."""
        if not segment.closed or segment.end_checkpoint is None:
            raise ReproError("segment must be closed before checking")
        if (self._golden is not None and segment.end_seq is not None
                and segment.end_seq <= self._fork_seq
                and not any(segment.start_seq <= seq < segment.end_seq
                            for seq in self._faults_by_seq)):
            memo = self._prefix_memo
            if memo is not None:
                cached = memo.get((segment.start_seq, segment.end_seq))
                if (cached is not None
                        and cached.segment_index == segment.index):
                    return cached
            result = self._check_columnar(segment)
            if result is not None:
                if memo is not None:
                    memo[(segment.start_seq, segment.end_seq)] = result
                return result
        start = segment.start_checkpoint
        end = segment.end_checkpoint
        entries = segment.entries
        instr_budget = (segment.end_seq or 0) - segment.start_seq

        result = CheckResult(segment_index=segment.index, ok=True)
        cursor = 0  # next log entry to consume

        def load_port(addr: int) -> tuple[int, int]:
            nonlocal cursor
            if cursor >= len(entries):
                raise _LogMismatch(CheckError(
                    ErrorKind.LOG_DIVERGENCE, segment.index, None,
                    "log segment exhausted before replay finished"))
            entry = entries[cursor]
            if entry.kind != LOAD:
                raise _LogMismatch(CheckError(
                    ErrorKind.LOG_DIVERGENCE, segment.index, cursor,
                    f"replayed a load but log holds {entry.describe()}"))
            if entry.addr != addr:
                raise _LogMismatch(CheckError(
                    ErrorKind.LOAD_ADDR_MISMATCH, segment.index, cursor,
                    f"load address {addr:#x} != logged {entry.addr:#x}"))
            cursor += 1
            result.entries_checked = cursor
            return addr, entry.value

        def store_port(addr: int, value: int) -> tuple[int, int]:
            nonlocal cursor
            if cursor >= len(entries):
                raise _LogMismatch(CheckError(
                    ErrorKind.LOG_DIVERGENCE, segment.index, None,
                    "log segment exhausted before replay finished"))
            entry = entries[cursor]
            if entry.kind != STORE:
                raise _LogMismatch(CheckError(
                    ErrorKind.LOG_DIVERGENCE, segment.index, cursor,
                    f"replayed a store but log holds {entry.describe()}"))
            if entry.addr != addr:
                raise _LogMismatch(CheckError(
                    ErrorKind.STORE_ADDR_MISMATCH, segment.index, cursor,
                    f"store address {addr:#x} != logged {entry.addr:#x}"))
            if entry.value != value:
                raise _LogMismatch(CheckError(
                    ErrorKind.STORE_VALUE_MISMATCH, segment.index, cursor,
                    f"store value {value:#x} != logged {entry.value:#x}"))
            cursor += 1
            result.entries_checked = cursor
            return addr, value

        def nondet_port(op: Opcode) -> int:
            nonlocal cursor
            if cursor >= len(entries) or entries[cursor].kind != NONDET:
                raise _LogMismatch(CheckError(
                    ErrorKind.LOG_DIVERGENCE, segment.index,
                    cursor if cursor < len(entries) else None,
                    "non-deterministic result missing from log"))
            value = entries[cursor].value
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
        # their generated bodies (CHECKER-site faults strike individual
        # replayed writebacks, so they keep the per-instruction loop)
        cells = build = None
        tlen = 0
        if not faults_by_seq and block_exec_enabled():
            table = block_table(self.program)
            cells = table.cells
            build = table.build
            tlen = len(cells)
        try:
            while executed < instr_budget and not machine.halted:
                pc = machine.pc
                if cells is not None and pc < tlen:
                    block = cells[pc]
                    if block is None:
                        block = build(pc)
                    if block.n <= instr_budget - executed:
                        block.replay(machine, steps_out)
                        executed += block.n
                        global_seq += block.n
                        STATS.block_instrs += block.n
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

        if result.ok and cursor != len(entries):
            # the instruction-count timeout fired on the checker before all
            # logged operations were reproduced: divergence (§IV-J)
            result.ok = False
            result.errors.append(CheckError(
                ErrorKind.LOG_DIVERGENCE, segment.index, cursor,
                f"{len(entries) - cursor} log entries left unchecked after "
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
