"""The parallel error detection system (paper §IV, Figure 3).

:class:`ParallelErrorDetection` attaches to the out-of-order core's commit
stream (as a :class:`repro.core.ooo_core.CommitHook`) and co-simulates:

* the **load forwarding unit** (§IV-C): a load is logged with the value
  duplicated at cache access (the trace's ``mem_value`` column), which is
  what the unit forwards at commit; the no-LFU ablation logs the value
  that reached the register file (``mem_used``) instead;
* the **partitioned load-store log**: a view of the trace's memory
  columns, cut into segments by the one closure rule of
  :mod:`repro.detection.lslog` (fill / instruction timeout / interrupt /
  termination, §IV-D, §IV-G, §IV-H, §IV-J);
* **register checkpoints** at each closure, pausing commit for the Table I
  16 cycles (§IV-E);
* **back-pressure**: when the next log segment's slot is still being
  checked, the main core's commit stalls until the checker frees it (the
  paper's "if all log segments are full, we stall the main core");
* **checker dispatch**: each closed segment is functionally replayed
  (:mod:`repro.detection.checker`) and timed on its in-order core model in
  the checker clock domain, producing per-entry check timestamps;
* **detection-delay accounting**: for every load/store, the time from
  main-core commit to its check on a checker core — the metric of
  Figures 8, 11 and 12.

The hook never looks at an oracle: errors surface only through the replay's
hardware comparisons, and the report records when each check completed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.common.config import SystemConfig
from repro.common.stats import Samples
from repro.common.time import ticks_to_ns
from repro.core.inorder_core import InOrderCoreModel
from repro.core.ooo_core import CommitHook, CoreResult, OoOCore
from repro.core.timing import config_key, time_bare, timing_splice_enabled
from repro.detection.checker import CheckError, SegmentChecker
from repro.detection.checkpoint import ArchStateTracker, RegisterCheckpoint
from repro.detection.faults import FaultSite, TransientFault
from repro.detection.lslog import CloseReason, Segment, segment_close
from repro.isa.executor import Trace
from repro.isa.meta import program_meta
from repro.isa.program import Program
from repro.memory.hierarchy import CheckerICaches


@dataclass(frozen=True)
class DetectionEvent:
    """One error reported by a checker core."""

    error: CheckError
    #: absolute tick at which the failing check completed
    detect_tick: int
    #: tick the offending segment closed (checkpoint taken)
    segment_close_tick: int

    @property
    def detect_ns(self) -> float:
        return ticks_to_ns(self.detect_tick)


@dataclass
class DetectionReport:
    """Everything the detection system observed during one run."""

    #: per-load/store delay between commit and check, in nanoseconds
    delays_ns: Samples = field(default_factory=Samples)
    events: list[DetectionEvent] = field(default_factory=list)
    segments_checked: int = 0
    entries_checked: int = 0
    closes_by_reason: dict[str, int] = field(default_factory=dict)
    #: cycles the main core spent stalled waiting for a free log segment
    log_full_stall_cycles: int = 0
    #: cycles commit paused for register checkpoint copies
    checkpoint_stall_cycles: int = 0
    checkpoints_taken: int = 0
    #: busy ticks per checker core (for utilisation)
    checker_busy_ticks: list[int] = field(default_factory=list)
    #: tick the last outstanding check finished (program termination is
    #: held back until then — §IV-H)
    all_checks_done_tick: int = 0

    @property
    def detected(self) -> bool:
        return bool(self.events)

    @property
    def first_event(self) -> DetectionEvent | None:
        return min(self.events, key=lambda e: e.detect_tick) \
            if self.events else None

    def first_error_position(self) -> tuple[int, int | None] | None:
        """The *program-order-first* error: (segment index, entry index).

        The paper (§IV): once every check up to a point completes, the
        system can identify the position of the first error — later
        errors may be consequences of it.  Entry index is None when the
        failing check was the register-checkpoint validation or a
        stream-level divergence.
        """
        if not self.events:
            return None
        first = min(
            self.events,
            key=lambda e: (e.error.segment_index,
                           e.error.entry_index if e.error.entry_index
                           is not None else 1 << 60))
        return first.error.segment_index, first.error.entry_index

    def mean_delay_ns(self) -> float:
        return self.delays_ns.mean()

    def max_delay_ns(self) -> float:
        return self.delays_ns.max()

    def snapshot(self) -> "DetectionReport":
        """Independent copy for a forked continuation.  Flat copies only:
        the :class:`DetectionEvent` records are frozen and shared."""
        return DetectionReport(
            delays_ns=self.delays_ns.snapshot(),
            events=list(self.events),
            segments_checked=self.segments_checked,
            entries_checked=self.entries_checked,
            closes_by_reason=dict(self.closes_by_reason),
            log_full_stall_cycles=self.log_full_stall_cycles,
            checkpoint_stall_cycles=self.checkpoint_stall_cycles,
            checkpoints_taken=self.checkpoints_taken,
            checker_busy_ticks=list(self.checker_busy_ticks),
            all_checks_done_tick=self.all_checks_done_tick,
        )


class ParallelErrorDetection(CommitHook):
    """Co-simulation hook implementing the paper's detection scheme."""

    def __init__(
        self,
        config: SystemConfig,
        program: Program,
        checkpoint_faults: list[TransientFault] | None = None,
        checker_faults: list[TransientFault] | None = None,
        interrupt_seqs: list[int] | None = None,
    ) -> None:
        config.validate()
        self.config = config
        self.program = program
        self.metas = program_meta(program)

        num_cores = config.checker.num_cores
        self.num_cores = num_cores
        self.main_period = config.main_core.clock().period_ticks
        self.checker_period = config.checker.clock().period_ticks
        self.ckpt_cycles = config.main_core.checkpoint_latency_cycles
        self.ideal = config.detection.ideal_checkers
        self.use_lfu = config.detection.load_forwarding_unit
        self.capacity = config.detection.segment_entries(num_cores)
        self.timeout = config.detection.instruction_timeout

        self.arch = ArchStateTracker()
        # the open segment: its index (its slot is the index modulo the
        # checker cores), first row, start checkpoint and the commit cycle
        # of each row so far; where it closes is planned by ``_plan``
        self._index = 0
        self._start = 0
        self._start_checkpoint = self.arch.snapshot(program.entry)
        self._commits: list[int] = []
        self._reason = CloseReason.TERMINATION
        self._close_row = -1
        self._on_commit = False
        self.segment_checker = SegmentChecker(
            program, checker_faults=checker_faults)
        self.icaches = CheckerICaches(config.checker)
        self.core_models = [
            InOrderCoreModel(config.checker, self.icaches, core_id)
            for core_id in range(num_cores)
        ]
        #: absolute tick each log slot (and its checker core) frees up
        self.slot_free_tick = [0] * num_cores
        #: pending first-commit gate after a segment closure
        self._commit_gate_tick = 0

        self._checkpoint_faults = {
            f.seq: f for f in (checkpoint_faults or ())
            if f.site is FaultSite.CHECKPOINT
        }
        self._interrupts = sorted(interrupt_seqs or [])
        self._next_interrupt = 0
        self._last_next_pc = program.entry
        # rows the core skipped (see CommitHook): their commit cycles,
        # and the first row whose commit this hook has not applied yet
        self.skipped_commits = []
        self.next_row = 0
        self._synced = 0

        self.report = DetectionReport(
            closes_by_reason={r.value: 0 for r in CloseReason},
            checker_busy_ticks=[0] * num_cores,
        )

    # -- checkpointing -------------------------------------------------------

    def _take_checkpoint(self, pc: int) -> RegisterCheckpoint:
        ckpt = self.arch.snapshot(pc)
        fault = self._checkpoint_faults.get(ckpt.index)
        if fault is not None:
            ckpt = ckpt.with_bit_flip(fault.reg, fault.bit)
        self.report.checkpoints_taken += 1
        return ckpt

    # -- CommitHook interface ---------------------------------------------------

    def begin(self, trace: Trace) -> None:
        """Bind to the trace being timed: cache its column references so
        the per-commit callbacks below are pure column reads.  Rows
        skipped under the previous binding are applied first."""
        self._catch_up()
        self._pcs = trace.pcs
        self._dsts = trace.dsts
        self._mem_off = trace.mem_off
        self._mem_kind = trace.mem_kind
        self._mem_addr = trace.mem_addr
        # a LOAD logs the value captured at access, which is what the
        # load forwarding unit forwards at commit (§IV-C); the ablation's
        # commit-time forwarding from the register file logs the value
        # that reached it, re-opening the window of vulnerability.  The
        # two columns differ only on loads
        self._values = trace.mem_value if self.use_lfu else trace.mem_used
        self._total = len(trace)
        self._final_next_pc = trace.final_next_pc
        # the open segment may have opened on another trace (a timing
        # splice forks golden into faulty): plan its close on this one
        self._plan()
        self._schedule(self._synced)

    def clone_shared(self) -> tuple:
        """Immutable structure :meth:`OoOCore.fork` aliases into timing
        snapshots instead of deep-copying: the configuration, program and
        metadata, the segment checker (nothing writes it after it is
        built), and the bound trace columns (mmap-backed memoryviews
        cannot be deep-copied at all).  Everything else on the hook is
        mutable per-run state and *is* copied."""
        shared = [self.config, self.program, self.metas,
                  self.segment_checker]
        for name in ("_pcs", "_dsts", "_mem_off", "_mem_kind", "_mem_addr",
                     "_values"):
            column = getattr(self, name, None)
            if column is not None:
                shared.append(column)
        return tuple(shared)

    def restore(self, src: "ParallelErrorDetection") -> None:
        """Overwrite this hook with an independent copy of ``src``.

        Immutable structure (config, program, metadata, trace columns,
        the segment checker) is aliased — exactly the set
        :meth:`clone_shared` declares; every mutable co-simulated
        structure is copied via its own flat ``snapshot``/``clone``.
        ``src`` first applies the rows it skipped.
        """
        src._catch_up()
        self.config = src.config
        self.program = src.program
        self.metas = src.metas
        self.num_cores = src.num_cores
        self.main_period = src.main_period
        self.checker_period = src.checker_period
        self.ckpt_cycles = src.ckpt_cycles
        self.ideal = src.ideal
        self.use_lfu = src.use_lfu
        self.capacity = src.capacity
        self.timeout = src.timeout
        self.arch = src.arch.clone()
        self._index = src._index
        self._start = src._start
        self._start_checkpoint = src._start_checkpoint
        self._commits = src._commits[:]
        self._reason = src._reason
        self._close_row = src._close_row
        self._on_commit = src._on_commit
        self.segment_checker = src.segment_checker
        self.icaches = src.icaches.snapshot()
        # the in-order models are stateless (all timing state lives in
        # the icaches), so fresh instances over the copied icaches are
        # exact replacements
        self.core_models = [
            InOrderCoreModel(src.config.checker, self.icaches, core_id)
            for core_id in range(src.num_cores)
        ]
        self.slot_free_tick = src.slot_free_tick[:]
        self._commit_gate_tick = src._commit_gate_tick
        self._checkpoint_faults = dict(src._checkpoint_faults)
        self._interrupts = list(src._interrupts)
        self._next_interrupt = src._next_interrupt
        self._last_next_pc = src._last_next_pc
        self.skipped_commits = []
        self.next_row = src.next_row
        self._synced = src._synced
        self.report = src.report.snapshot()
        for name in ("_pcs", "_dsts", "_mem_off", "_mem_kind", "_mem_addr",
                     "_values", "_total", "_final_next_pc"):
            if hasattr(src, name):
                setattr(self, name, getattr(src, name))

    def snapshot(self) -> "ParallelErrorDetection":
        """An isolated copy of this hook for a forked continuation
        (overrides the base deepcopy fallback with explicit flat copies,
        pinned byte-identical to it by the fork-identity tests)."""
        clone = ParallelErrorDetection.__new__(ParallelErrorDetection)
        clone.restore(self)
        return clone

    def _next_pc_of(self, seq: int) -> int:
        return (self._pcs[seq + 1] if seq + 1 < self._total
                else self._final_next_pc)

    def _catch_up(self) -> None:
        """Apply the commits of the rows the core skipped: register
        writebacks and commit cycles.  None of them can close a segment
        (see :meth:`_schedule`)."""
        cycles = self.skipped_commits
        if not cycles:
            return
        start = self._synced
        stop = self._synced = start + len(cycles)
        self.arch.apply_rows(self._dsts, start, stop)
        self._commits.extend(cycles)
        self._last_next_pc = self._next_pc_of(stop - 1)
        del cycles[:]

    def _plan(self) -> None:
        """Plan where the open segment closes, by the one closure rule
        (:func:`repro.detection.lslog.segment_close`) over the bound
        trace: the close reason, and the row in whose ``post_commit``
        (``on_commit``) or ``pre_commit`` (a macro-op overflow) it closes.
        A TERMINATION close plans row ``len(trace)``, which never commits:
        :meth:`finish` takes it."""
        interrupts = self._interrupts
        pending = (interrupts[self._next_interrupt]
                   if self._next_interrupt < len(interrupts) else None)
        end, self._reason, self._on_commit = segment_close(
            self._mem_off, self._start, self._total, self.capacity,
            self.timeout, pending)
        self._close_row = end - 1 if self._on_commit else end

    def _schedule(self, row: int) -> None:
        """Set :attr:`next_row`: the first row from ``row`` on whose
        commit a segment can close or the commit gate applies.  Neither
        depends on timing: the open segment closes on its planned row
        (:meth:`_plan`), and an armed gate applies on the very next
        row."""
        self.next_row = row if self._commit_gate_tick else self._close_row

    def pre_commit(self, seq: int, earliest_cycle: int) -> int:
        self._catch_up()
        if seq == self._close_row and not self._on_commit:
            # macro-op rule: close at the boundary *before* this instruction;
            # its entries all go into the next segment (§IV-D)
            close_tick = earliest_cycle * self.main_period
            self._close(self._take_checkpoint(self._pcs[seq]), seq,
                        close_tick)
            earliest_cycle += self.ckpt_cycles
            self.report.checkpoint_stall_cycles += self.ckpt_cycles
            self._arm_commit_gate()

        if self._commit_gate_tick:
            # first commit into a freshly opened segment: its slot must have
            # been released by the checker of its previous occupant
            gate_cycle = -(-self._commit_gate_tick // self.main_period)
            if gate_cycle > earliest_cycle:
                self.report.log_full_stall_cycles += gate_cycle - earliest_cycle
                earliest_cycle = gate_cycle
            self._commit_gate_tick = 0

        return earliest_cycle

    def post_commit(self, seq: int, commit_cycle: int) -> int:
        self.arch.apply_dsts(self._dsts[seq])
        next_pc = self._next_pc_of(seq)
        self._last_next_pc = next_pc
        self._synced = seq + 1
        self._commits.append(commit_cycle)

        if seq != self._close_row or not self._on_commit:
            if seq >= self.next_row:
                self._schedule(seq + 1)
            return 0

        commit_tick = commit_cycle * self.main_period
        self._close(self._take_checkpoint(next_pc), seq + 1, commit_tick)
        self.report.checkpoint_stall_cycles += self.ckpt_cycles
        self._arm_commit_gate()
        self._schedule(seq + 1)
        return self.ckpt_cycles

    def finish(self, last_commit_cycle: int) -> int:
        self._catch_up()
        final_tick = last_commit_cycle * self.main_period
        if self._synced > self._start:
            # the program's end closes the open segment (its planned
            # TERMINATION close)
            self._close(self._take_checkpoint(self._last_next_pc),
                        self._synced, final_tick)
            self.report.checkpoint_stall_cycles += self.ckpt_cycles
        done = max([final_tick] + self.slot_free_tick)
        self.report.all_checks_done_tick = done
        # the program's termination is held back until every outstanding
        # check completes (§IV-H)
        return -(-done // self.main_period)

    # -- internals ---------------------------------------------------------------

    def _arm_commit_gate(self) -> None:
        slot = self._index % self.num_cores
        if self.slot_free_tick[slot] > 0:
            self._commit_gate_tick = self.slot_free_tick[slot]

    def _close(self, end_checkpoint: RegisterCheckpoint, end: int,
               close_tick: int) -> None:
        """Close the open segment before row ``end`` for its planned
        reason, open the next one there and dispatch the closed one.

        The closed segment's columns are those of the trace bound now.
        Its end checkpoint becomes the start checkpoint of its successor
        — the induction chain of §IV.
        """
        start = self._start
        reason = self._reason
        segment = Segment(
            index=self._index, slot=self._index % self.num_cores,
            start_seq=start, end_seq=end,
            start_checkpoint=self._start_checkpoint,
            end_checkpoint=end_checkpoint,
            close_reason=reason, close_tick=close_tick,
            lo=self._mem_off[start], hi=self._mem_off[end],
            kinds=self._mem_kind, addrs=self._mem_addr, values=self._values,
            commits=self._commits)
        self.report.closes_by_reason[reason.value] += 1
        if reason is CloseReason.INTERRUPT:
            self._next_interrupt += 1
        self._index += 1
        self._start = end
        self._start_checkpoint = end_checkpoint
        self._commits = []
        self._plan()
        self._dispatch(segment, close_tick)

    def _dispatch(self, segment: Segment, close_tick: int) -> None:
        """Hand a closed segment to its checker core."""
        slot = segment.slot
        checkpoint_done = close_tick + self.ckpt_cycles * self.main_period
        if self.ideal:
            # Figure 10 mode: infinitely fast checkers — the only cost left
            # is the checkpoint machinery itself
            self.slot_free_tick[slot] = checkpoint_done
            self.report.segments_checked += 1
            return

        result = self.segment_checker.check(segment)
        start = max(checkpoint_done, self.slot_free_tick[slot])
        # align to the checker's clock edge
        start = -(-start // self.checker_period) * self.checker_period
        # the in-order model runs in the checker clock's absolute time so
        # its I-cache state (in-flight fills, MSHRs) stays coherent across
        # segments
        timing = self.core_models[slot].run_segment(
            result.steps, self.metas, start_cycle=start // self.checker_period)
        finish = start + timing.total_cycles * self.checker_period
        self.slot_free_tick[slot] = finish
        self.report.checker_busy_ticks[slot] += finish - start
        self.report.segments_checked += 1
        self.report.entries_checked += result.entries_checked

        delays = self.report.delays_ns
        checked = min(result.entries_checked, len(timing.entry_check_cycles),
                      segment.hi - segment.lo)
        # entry i was committed with the row whose entry range holds it
        mem_off = self._mem_off
        commits = segment.commits
        lo = segment.lo
        first = row = segment.start_seq
        for i in range(checked):
            while mem_off[row + 1] <= lo + i:
                row += 1
            check_tick = start + timing.entry_check_cycles[i] * self.checker_period
            commit_tick = commits[row - first] * self.main_period
            delays.add(ticks_to_ns(check_tick - commit_tick))

        if not result.ok:
            for error in result.errors:
                if (error.entry_index is not None
                        and error.entry_index < len(timing.entry_check_cycles)):
                    tick = start + (timing.entry_check_cycles[error.entry_index]
                                    * self.checker_period)
                else:
                    tick = finish
                self.report.events.append(DetectionEvent(
                    error=error, detect_tick=tick,
                    segment_close_tick=close_tick))


@dataclass
class DetectionRunResult:
    """A full protected run: core timing + detection report."""

    core: CoreResult
    report: DetectionReport

    @property
    def main_cycles(self) -> int:
        return self.core.cycles

    @property
    def system_cycles(self) -> int:
        return self.core.system_cycles


@dataclass(frozen=True)
class DetectionVerdict:
    """What a fault verdict reads from a detection run, and nothing more.

    ``run_with_detection(..., verdict_only=True)`` returns this instead
    of a :class:`DetectionRunResult`: its timing may stop before the end
    of the trace, so it carries no cycle counts or delay statistics that
    could pass for a complete run's.
    """

    first_event: DetectionEvent | None
    first_error_position: tuple[int, int | None] | None

    @property
    def detected(self) -> bool:
        return self.first_event is not None

    @classmethod
    def of(cls, report: DetectionReport) -> "DetectionVerdict":
        return cls(report.first_event, report.first_error_position())


def run_unprotected(trace: Trace, config: SystemConfig) -> CoreResult:
    """Time ``trace`` on a bare main core (the normalisation baseline).

    Served from the trace's golden timing when it exists — the stored
    result *is* the output of this exact run — and timed (and published
    to the trace store) on first use otherwise."""
    return time_bare(trace, config)


#: Snapshot spacing floor for timing-splice cursors, in trace rows.  A
#: cursor snapshots every spacing boundary (at most 17: the spacing
#: grows to ``len(trace) / 16`` on long traces), and a seq behind its
#: live run re-times fewer golden rows than the spacing.
SPLICE_SNAPSHOT_MIN_INTERVAL = 1024

#: Timing-splice cursors kept alive per process (each resident cursor
#: pins its golden trace and its snapshots).
SPLICE_CURSOR_CAP = 4


class _TimingSpliceCursor:
    """A resumable timed run of one golden trace under detection.

    Walks the golden trace through a fresh :class:`ParallelErrorDetection`
    hook monotonically, snapshotting the full (core, run-state, hook)
    bundle via :meth:`OoOCore.fork` at interval boundaries.  A fault job
    gets a clone timed to *exactly* its fork seq and re-times only the
    faulty suffix — byte-identical to a full re-timing because it is the
    same loop resumed from the same state:

    * pre-fork rows of a forked trace are splices of the golden columns,
      so timing them on the golden trace reproduces the faulty run's
      timing, and replaying its segments reproduces the faulty run's
      per-segment check results and checker-core timings;
    * ``run_rows`` chunk boundaries are timing-transparent, so stopping
      at a fork seq perturbs nothing.

    ``bundle`` advances the live run in place, so it holds the cursor's
    lock throughout: threads that share a cursor (``repro serve
    --drain-workers N`` drains on N threads of one process) take turns,
    and each leaves with a private clone.
    """

    def __init__(self, golden: Trace, config: SystemConfig) -> None:
        self.golden = golden
        self.config = config
        self._lock = threading.Lock()
        self.interval = max(SPLICE_SNAPSHOT_MIN_INTERVAL,
                            -(-len(golden) // 16))
        self.core = OoOCore(config)
        self.hook = ParallelErrorDetection(config, golden.program)
        self.hook.begin(golden)
        self.state = self.core.start_state()
        self._snapshots = {0: self.core.fork(self.state, self.hook)}

    def bundle(self, fork_seq: int):
        """An isolated (core, state, hook) clone timed to exactly
        ``min(fork_seq, len(golden))``, ready to resume.

        A seq at or ahead of the live run advances it (the common path on
        a fork-seq-sorted cell); a seq behind it re-times a detached clone
        of the interval snapshot below — at most one interval of golden
        rows.  Only interval snapshots are kept, so a cursor's resident
        state stays bounded whatever order the seqs arrive in."""
        boundary = min(fork_seq, len(self.golden))
        with self._lock:
            if boundary < self.state.next_row:
                core, state, hook = self._snapshots[
                    boundary - boundary % self.interval]
                core, state, hook = core.fork(state, hook)
                if state.next_row < boundary:
                    core.run_rows(self.golden, hook, state, boundary)
                return core, state, hook
            core, state, hook = self.core, self.state, self.hook
            # snapshot every interval boundary the walk crosses, so later
            # seqs behind the live run rewind from close by
            while state.next_row < boundary:
                row = state.next_row
                target = min(row - row % self.interval + self.interval,
                             boundary)
                core.run_rows(self.golden, hook, state, target)
                if target % self.interval == 0:
                    self._snapshots[target] = core.fork(state, hook)
            return core.fork(state, hook)


#: (config key → cursor entries) in LRU order — lookups move an entry to
#: the back, insertions evict from the front past :data:`SPLICE_CURSOR_CAP`;
#: entries verify golden identity on lookup.
_SPLICE_CURSORS: dict = {}
_SPLICE_CURSORS_LOCK = threading.Lock()


def _splice_cursor(golden: Trace,
                   config: SystemConfig) -> _TimingSpliceCursor:
    key = (id(golden), config_key(config))
    with _SPLICE_CURSORS_LOCK:
        cursor = _SPLICE_CURSORS.pop(key, None)
        if cursor is None or cursor.golden is not golden:
            cursor = _TimingSpliceCursor(golden, config)
        _SPLICE_CURSORS[key] = cursor
        while len(_SPLICE_CURSORS) > SPLICE_CURSOR_CAP:
            _SPLICE_CURSORS.pop(next(iter(_SPLICE_CURSORS)))
        return cursor


def _spliced_detection_run(trace: Trace, config: SystemConfig,
                           verdict_only: bool = False,
                           ) -> DetectionRunResult | DetectionVerdict:
    """Re-time only the post-fork suffix of a forked faulty trace.

    With ``verdict_only``, timing stops at the close of the log segment
    that holds ``trace.last_fault_seq``, the last row a fault perturbed:
    the commit (or, for a macro-op overflow, the pre-commit) of the row
    the hook plans that close on, or the end of the run when the
    termination segment holds the row.  A checker replays its segment
    from the segment's start checkpoint, so a segment whose rows all
    follow that row is a fault-free execution of the state it starts
    from and passes its check: the paper's strong induction over
    segments (§IV).  Every failing segment therefore starts at or
    before that row and has closed by that point, and a segment's
    events are recorded when it closes, so all events are recorded by
    that close and the verdict equals the complete report's.  A run
    with ideal checkers, which check nothing, or on a trace no fault
    perturbed, records no event and times no row.

    So a one-transient verdict reads no row past the close of the
    segment holding its row, and its trace may be a prefix of the
    complete faulty run that ends there: the detection scheme's fault
    path stops executing such a fault once that segment has closed.  A
    run without ``verdict_only`` needs the complete trace.
    """
    cursor = _splice_cursor(trace.fork_of, config)
    core, state, hook = cursor.bundle(trace.fork_seq)
    # rebinding is all ``begin`` does: column refs, and the open
    # segment's close planned on the faulty trace
    hook.begin(trace)
    total = len(trace)
    if not verdict_only:
        core.run_rows(trace, hook, state, total)
        return DetectionRunResult(core=core.finish_run(trace, hook, state),
                                  report=hook.report)
    last = trace.last_fault_seq
    if last is None or hook.ideal:
        return DetectionVerdict.of(hook.report)
    while hook._start <= last:
        if state.next_row >= total:
            # the termination segment holds the row
            core.finish_run(trace, hook, state)
            break
        core.run_rows(trace, hook, state, min(hook._close_row + 1, total))
    return DetectionVerdict.of(hook.report)


def run_with_detection(
    trace: Trace,
    config: SystemConfig,
    checkpoint_faults: list[TransientFault] | None = None,
    checker_faults: list[TransientFault] | None = None,
    interrupt_seqs: list[int] | None = None,
    verdict_only: bool = False,
) -> DetectionRunResult | DetectionVerdict:
    """Time ``trace`` on a main core with parallel error detection attached.

    Fault injection into the *main core's execution* happens earlier, when
    the trace is produced (``execute_program(program, fault_injector=...)``);
    checkpoint/checker faults and interrupt arrivals are modelled here.

    Timing is the exact OoO cycle model.  A forked faulty trace with no
    detection-side faults or interrupts resumes a golden timing snapshot
    taken at exactly its fork seq and re-times only the suffix —
    byte-identical to the full re-timing below, which remains the path
    for everything else (and the whole story under
    ``REPRO_TIMING_SPLICE=0``; see :mod:`repro.core.timing`).

    ``verdict_only=True`` returns a :class:`DetectionVerdict` instead of
    the full result.  On the spliced path its timing then stops at the
    close of the log segment holding the last row a fault perturbed
    (``trace.last_fault_seq``; see :func:`_spliced_detection_run`): a
    segment that starts after that row replays a fault-free execution
    of its start checkpoint and passes, so all events are recorded by
    that close.  With ideal checkers, which check nothing, no row is
    timed.  Every other path runs in full and reads its verdict off the
    complete report, so ``REPRO_TIMING_SPLICE=0`` also turns the early
    stop off.
    """
    if (trace.fork_of is not None
            and timing_splice_enabled()
            and not checkpoint_faults
            and not checker_faults
            and not interrupt_seqs):
        return _spliced_detection_run(trace, config, verdict_only)
    hook = ParallelErrorDetection(
        config, trace.program,
        checkpoint_faults=checkpoint_faults,
        checker_faults=checker_faults,
        interrupt_seqs=interrupt_seqs,
    )
    core_result = OoOCore(config).run(trace, hook=hook)
    if verdict_only:
        return DetectionVerdict.of(hook.report)
    return DetectionRunResult(core=core_result, report=hook.report)
