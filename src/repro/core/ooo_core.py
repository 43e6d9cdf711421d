"""Trace-driven out-of-order main-core timing model.

The model walks the committed dynamic trace (from the functional executor)
and computes per-instruction fetch → dispatch → issue → complete → commit
times under the Table I resource constraints:

* fetch bandwidth and L1I behaviour (line-granularity accesses, redirect
  bubbles after branch mispredictions from a real tournament predictor);
* dispatch limited by width, ROB occupancy (µop-granular, so LDP/STP take
  two slots), IQ occupancy, and LQ/SQ occupancy;
* issue when operands are ready, subject to functional-unit counts
  (non-pipelined divide/sqrt occupy their unit);
* loads access the L1D/L2/DRAM hierarchy with MSHR limits, stride
  prefetching, and store-to-load forwarding from in-flight stores;
* in-order commit limited by commit width.

This is deliberately a *mechanistic approximation*, not a µop-accurate
pipeline: it reproduces the IPC contrast between memory-bound and
compute-bound codes and the stall behaviour the detection scheme interacts
with, at a speed that allows the full parameter sweeps of §VI-A.

The loop reads each static instruction as the flat tuple
``program_meta(program).ooo[pc]`` (see :mod:`repro.isa.meta`): latency,
FU-pool index, pool occupancy, fetch address and line, register indices,
memory kind and control flags, all resolved once per program.

The detection system attaches through :class:`CommitHook`:

* ``pre_commit`` lets it hold an instruction's commit back (main core
  stalled because every log segment is full — paper §IV-D);
* ``post_commit`` lets it pause commit afterwards (the 16-cycle register
  checkpoint at the end of a segment — paper §VI "Register Checkpoint
  Overhead").

A hook may name the next row it needs to see; the core then skips the
callbacks on the rows before it and hands the hook their commit cycles
instead (the detection hook needs to see only the rows where a log
segment can close or the commit gate applies).

The run loop is *resumable*: all mutable run state lives in a
:class:`CoreRunState` capsule, ``run_rows`` advances it over a half-open
row range, and :meth:`OoOCore.fork` snapshots a mid-run (core, state,
hook) bundle into an isolated continuation via explicit
``snapshot()``/``restore()`` methods (flat list/dict copies — no
recursive deepcopy).  This is what the timing splice (ROADMAP item 2)
builds on: time a golden trace once, snapshot at keyframe-like
boundaries, and re-time only the post-fork suffix of each faulty trace —
byte-identical to a full re-timing because it *is* the same loop,
resumed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.core.branch import TournamentPredictor
from repro.isa.executor import LOAD, STORE, Trace
from repro.isa.instructions import NUM_FP_REGS, NUM_INT_REGS, FuClass
from repro.isa.meta import FU_POOLS, MEM_LOAD, MEM_STORE, program_meta
from repro.memory.hierarchy import MemoryHierarchy


class CommitHook:
    """Interface by which the detection system observes/stalls commit.

    The hook walks the trace's columns alongside the core: ``begin``
    hands it the columnar trace once, and the commit callbacks identify
    the committing instruction by its row index (== commit ``seq``), so
    no per-instruction record objects are materialised on the timing
    path.  The base implementation is a no-op (unprotected core).

    Which rows the core calls ``pre_commit``/``post_commit`` on:

    * a hook whose :attr:`skipped_commits` is None (the default) sees
      every row, in commit order;
    * a hook that sets it to a list sees only row :attr:`next_row`,
      which the core reads when ``run_rows`` starts and after every
      ``post_commit``; the commit cycle of every row before it is
      appended to ``skipped_commits``, in commit order.  The hook
      applies those rows itself (when it next runs, and before it is
      snapshotted, rebound by ``begin`` or finished), empties the list
      in place, and promises that a skipped row would have left the
      commit cycle alone and returned no pause.
    """

    #: Commit cycles of the rows the core did not call this hook on
    #: (None: the hook sees every row).
    skipped_commits: list[int] | None = None
    #: With :attr:`skipped_commits` set: the next row the hook must see.
    next_row: int = 0

    def begin(self, trace: Trace) -> None:
        """Called once before the first commit with the trace being run."""

    def pre_commit(self, seq: int, earliest_cycle: int) -> int:
        """Return the earliest cycle at which row ``seq`` may commit (>= the
        argument).  Called in commit order, on the rows the class
        docstring names."""
        return earliest_cycle

    def post_commit(self, seq: int, commit_cycle: int) -> int:
        """Called after row ``seq`` commits at ``commit_cycle`` (on every
        row ``pre_commit`` saw).  Returns the number of cycles to pause
        commit afterwards (0 for none)."""
        return 0

    def finish(self, last_commit_cycle: int) -> int:
        """Called once after the last instruction commits; returns the cycle
        at which the *system* is done (e.g. held-back program termination
        waiting for outstanding checks, paper §IV-H)."""
        return last_commit_cycle

    def clone_shared(self) -> tuple:
        """Objects :meth:`OoOCore.fork` must alias, never deep-copy, when
        snapshotting a run this hook is attached to: bound trace columns
        (mmap-backed memoryviews are not copyable), the program, and other
        immutable structure.  Mutable hook state is *not* listed here —
        forked continuations need their own copy of it."""
        return ()

    def snapshot(self) -> "CommitHook":
        """An isolated copy of this hook for a forked continuation.

        The base implementation deep-copies the hook with everything in
        :meth:`clone_shared` aliased — correct for any hook, slow for big
        ones.  Stateful hooks on the fork fast path (the detection system)
        override this with explicit flat copies.
        """
        memo = {id(obj): obj for obj in self.clone_shared()}
        return copy.deepcopy(self, memo)


@dataclass
class CoreResult:
    """Timing outcome of one main-core run."""

    cycles: int
    instructions: int
    uops: int
    #: cycle the whole system finished (== cycles without a hook)
    system_cycles: int = 0
    branch_lookups: int = 0
    branch_mispredicts: int = 0
    l1d_misses: int = 0
    l2_misses: int = 0
    commit_stall_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


#: Frontend depth in cycles between fetch and dispatch (decode+rename).
FRONTEND_DEPTH = 4


class CoreRunState:
    """Every mutable local of the run loop, boxed so a run can pause.

    ``run_rows`` loads these into locals on entry and writes them back on
    exit, so boxing costs nothing on the per-row path.  The capsule holds
    plain ints/lists/dicts only — :meth:`snapshot` copies it exactly with
    flat slice/dict copies (via :meth:`OoOCore.fork`).
    """

    __slots__ = (
        "next_row",
        "reg_ready", "fu_pools",
        "rob_ring", "rob_head", "iq_ring", "iq_head",
        "lq_ring", "lq_head", "sq_ring", "sq_head",
        "store_forward",
        "fetch_cycle", "fetch_slots", "current_fetch_line", "icache_ready",
        "last_commit_cycle", "commit_slots", "commit_floor",
        "stall_cycles_total", "total_uops",
    )

    def restore(self, src: "CoreRunState") -> None:
        """Overwrite this capsule with an independent copy of ``src``.

        Containers are flat-copied (the capsule holds only ints, flat
        lists, and int-valued dicts), so no recursion is needed.
        """
        self.next_row = src.next_row
        self.reg_ready = src.reg_ready[:]
        self.fu_pools = [pool[:] for pool in src.fu_pools]
        self.rob_ring = src.rob_ring[:]
        self.rob_head = src.rob_head
        self.iq_ring = src.iq_ring[:]
        self.iq_head = src.iq_head
        self.lq_ring = src.lq_ring[:]
        self.lq_head = src.lq_head
        self.sq_ring = src.sq_ring[:]
        self.sq_head = src.sq_head
        self.store_forward = dict(src.store_forward)
        self.fetch_cycle = src.fetch_cycle
        self.fetch_slots = src.fetch_slots
        self.current_fetch_line = src.current_fetch_line
        self.icache_ready = src.icache_ready
        self.last_commit_cycle = src.last_commit_cycle
        self.commit_slots = src.commit_slots
        self.commit_floor = src.commit_floor
        self.stall_cycles_total = src.stall_cycles_total
        self.total_uops = src.total_uops

    def snapshot(self) -> "CoreRunState":
        """An independent copy of this capsule (fork support)."""
        clone = CoreRunState()
        clone.restore(self)
        return clone


class OoOCore:
    """The 3-wide out-of-order core of Table I."""

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        self.core = config.main_core
        self.clock = self.core.clock()
        self.hierarchy = MemoryHierarchy(config.memory, self.clock)
        self.predictor = TournamentPredictor(config.branch)

    def start_state(self) -> CoreRunState:
        """A fresh run state positioned before row 0."""
        core = self.core
        s = CoreRunState()
        s.next_row = 0
        # register ready times, int then fp registers (ProgramMeta's
        # register index space)
        s.reg_ready = [0] * (NUM_INT_REGS + NUM_FP_REGS)
        # functional units: next-free cycle per unit instance, one pool
        # per FU_POOLS entry
        units = {
            FuClass.INT_ALU: core.int_alus,
            FuClass.FP_ALU: core.fp_alus,
            FuClass.MULDIV: core.muldiv_alus,
            FuClass.MEM: 2,                 # one load port + one store port
            FuClass.BRANCH: core.int_alus,  # branches use int ALUs
        }
        s.fu_pools = [[0] * units[fu] for fu in FU_POOLS]
        # occupancy rings: cycle at which the slot is released
        s.rob_ring = [0] * core.rob_entries
        s.rob_head = 0
        s.iq_ring = [0] * core.iq_entries
        s.iq_head = 0
        s.lq_ring = [0] * core.lq_entries
        s.lq_head = 0
        s.sq_ring = [0] * core.sq_entries
        s.sq_head = 0
        # in-flight stores for store-to-load forwarding: addr -> data cycle
        s.store_forward = {}
        # fetch state
        s.fetch_cycle = 0        # cycle the next fetch group starts
        s.fetch_slots = 0        # instructions fetched in fetch_cycle
        s.current_fetch_line = -1
        s.icache_ready = 0
        # commit state
        s.last_commit_cycle = 0
        s.commit_slots = 0
        s.commit_floor = 0       # earliest next commit (stall injection)
        s.stall_cycles_total = 0
        s.total_uops = 0
        return s

    def fork(self, state: CoreRunState, hook: CommitHook | None = None):
        """Snapshot this mid-run (core, state, hook) into an isolated
        continuation.

        Every mutable structure — the memory hierarchy, the branch
        predictor, the run-state capsule, and the hook — is copied via
        its explicit ``snapshot()`` method (flat list/dict copies, no
        recursive deepcopy).  Configuration objects, the clock, and the
        trace columns stay shared: they are immutable for the lifetime of
        a run (mmap-backed columns could not be deep-copied anyway).
        The result is byte-identical to the deep-copy this used to do,
        which the fork-identity tests pin.
        """
        core = OoOCore.__new__(OoOCore)
        core.config = self.config
        core.core = self.core
        core.clock = self.clock
        core.hierarchy = self.hierarchy.snapshot()
        core.predictor = self.predictor.snapshot()
        forked_state = state.snapshot() if state is not None else None
        forked_hook = hook.snapshot() if hook is not None else None
        return core, forked_state, forked_hook

    def run_rows(
        self,
        trace: Trace,
        hook: CommitHook | None,
        state: CoreRunState,
        stop: int,
    ) -> None:
        """Advance the run over rows ``[state.next_row, stop)``.

        Does not call ``hook.begin``/``hook.finish`` — callers sequence
        those (``run`` does both; the timing splice calls ``begin`` once
        per binding and resumes ``run_rows`` from a forked state).  Which
        rows reach ``hook.pre_commit``/``post_commit`` is the
        :class:`CommitHook` contract.
        """
        core = self.core
        rows = program_meta(trace.program).ooo
        hierarchy = self.hierarchy
        access_instr = hierarchy.access_instr
        access_data = hierarchy.access_data
        mispredicted = self.predictor.mispredicted
        mispredict_penalty = core.mispredict_penalty_cycles

        fetch_width = core.fetch_width
        commit_width = core.commit_width
        rob_size = core.rob_entries
        iq_size = core.iq_entries
        lq_size = core.lq_entries
        sq_size = core.sq_entries

        # unbox the capsule into locals for the hot loop
        reg_ready = state.reg_ready
        fu_pools = state.fu_pools
        rob_ring = state.rob_ring
        rob_head = state.rob_head
        iq_ring = state.iq_ring
        iq_head = state.iq_head
        lq_ring = state.lq_ring
        lq_head = state.lq_head
        sq_ring = state.sq_ring
        sq_head = state.sq_head
        store_forward = state.store_forward
        fetch_cycle = state.fetch_cycle
        fetch_slots = state.fetch_slots
        current_fetch_line = state.current_fetch_line
        icache_ready = state.icache_ready
        last_commit_cycle = state.last_commit_cycle
        commit_slots = state.commit_slots
        commit_floor = state.commit_floor
        stall_cycles_total = state.stall_cycles_total
        total_uops = state.total_uops

        # the next row the hook sees (-1: never); rows it skips have their
        # commit cycles appended through ``skip``
        skip = None
        if hook is None:
            hook_row = -1
        elif hook.skipped_commits is None:
            hook_row = state.next_row
        else:
            hook_row = hook.next_row
            skip = hook.skipped_commits.append

        # trace columns (structure of arrays: no row objects on this path)
        pcs = trace.pcs
        takens = trace.takens
        mem_off = trace.mem_off
        mem_kind = trace.mem_kind
        mem_addr = trace.mem_addr
        final_next_pc = trace.final_next_pc
        total = len(pcs)

        for i in range(state.next_row, stop):
            pc = pcs[i]
            (fetch_addr, line, uops, mem, srcs, fu, occupancy, latency,
             ctrl, dsts) = rows[pc]
            total_uops += uops

            # ---- fetch -----------------------------------------------------
            if line != current_fetch_line:
                icache_ready = access_instr(fetch_addr, fetch_cycle)
                current_fetch_line = line
            if icache_ready > fetch_cycle:
                this_fetch = fetch_cycle = icache_ready
                fetch_slots = 0
            else:
                this_fetch = fetch_cycle
            fetch_slots += 1
            if fetch_slots >= fetch_width:
                fetch_cycle += 1
                fetch_slots = 0

            # ---- dispatch ---------------------------------------------------
            dispatch = this_fetch + FRONTEND_DEPTH
            # ROB occupancy (µop-granular): the instruction claims ``uops``
            # consecutive slots from ``rob_slot``; their release times are
            # written at commit below
            rob_slot = rob_head
            for _ in range(uops):
                if rob_ring[rob_head] > dispatch:
                    dispatch = rob_ring[rob_head]
                rob_head = rob_head + 1 if rob_head + 1 < rob_size else 0
            # IQ occupancy
            if iq_ring[iq_head] > dispatch:
                dispatch = iq_ring[iq_head]
            # LQ/SQ occupancy
            if mem == MEM_LOAD:
                if lq_ring[lq_head] > dispatch:
                    dispatch = lq_ring[lq_head]
            elif mem == MEM_STORE:
                if sq_ring[sq_head] > dispatch:
                    dispatch = sq_ring[sq_head]

            # ---- issue ------------------------------------------------------
            ready = dispatch + 1
            for reg in srcs:
                if reg_ready[reg] > ready:
                    ready = reg_ready[reg]
            if fu >= 0:
                pool = fu_pools[fu]
                best_t = min(pool)
                issue = ready if ready >= best_t else best_t
                pool[pool.index(best_t)] = issue + occupancy
            else:
                issue = ready

            # ---- execute ----------------------------------------------------
            if mem == MEM_LOAD:
                done = issue
                for j in range(mem_off[i], mem_off[i + 1]):
                    if mem_kind[j] != LOAD:
                        continue
                    addr = mem_addr[j]
                    fwd = store_forward.get(addr)
                    if fwd is not None:
                        access_done = max(issue + 1, fwd)
                    else:
                        access_done = access_data(addr, False, pc, issue + 1)
                    if access_done > done:
                        done = access_done
            elif mem == MEM_STORE:
                done = issue + 1
                m_lo, m_hi = mem_off[i], mem_off[i + 1]
                for j in range(m_lo, m_hi):
                    if mem_kind[j] == STORE:
                        store_forward[mem_addr[j]] = done
                        if len(store_forward) > 2 * sq_size:
                            # retire oldest forwarding entries
                            for key in list(store_forward)[:sq_size]:
                                del store_forward[key]
            else:
                done = issue + latency

            # ---- branch resolution -------------------------------------------
            if ctrl is not None:
                is_branch, is_jump, is_jalr, is_jal = ctrl
                miss = mispredicted(
                    pc, is_branch, is_jump, is_jalr, is_jal,
                    takens[i] == 1,
                    pcs[i + 1] if i + 1 < total else final_next_pc,
                )
                if miss:
                    redirect = done + mispredict_penalty
                    if redirect > fetch_cycle:
                        fetch_cycle = redirect
                        fetch_slots = 0
                        current_fetch_line = -1

            # ---- commit ------------------------------------------------------
            earliest = done + 1
            if earliest < last_commit_cycle:
                earliest = last_commit_cycle
            if earliest < commit_floor:
                earliest = commit_floor
            if i == hook_row:
                held = hook.pre_commit(i, earliest)
                if held > earliest:
                    stall_cycles_total += held - earliest
                    earliest = held
            if earliest == last_commit_cycle:
                commit_slots += 1
                if commit_slots > commit_width:
                    earliest += 1
                    commit_slots = 1
            else:
                commit_slots = 1
            commit_cycle = last_commit_cycle = earliest

            # release resources: write release times into the slots claimed
            # at dispatch
            released = commit_cycle + 1
            for _ in range(uops):
                rob_ring[rob_slot] = released
                rob_slot = rob_slot + 1 if rob_slot + 1 < rob_size else 0
            iq_ring[iq_head] = issue + 1
            iq_head = iq_head + 1 if iq_head + 1 < iq_size else 0
            if mem == MEM_LOAD:
                lq_ring[lq_head] = released
                lq_head = lq_head + 1 if lq_head + 1 < lq_size else 0
            elif mem == MEM_STORE:
                sq_ring[sq_head] = released
                sq_head = sq_head + 1 if sq_head + 1 < sq_size else 0
                # drain the store to the cache hierarchy post-commit
                for j in range(m_lo, m_hi):
                    if mem_kind[j] == STORE:
                        access_data(mem_addr[j], True, pc, released)

            # writeback ready times
            for reg in dsts:
                reg_ready[reg] = done

            if i == hook_row:
                pause = hook.post_commit(i, commit_cycle)
                if pause:
                    stall_cycles_total += pause
                    commit_floor = commit_cycle + pause
                    # the architectural register file / rename state must
                    # hold still while the checkpoint is copied out, so
                    # dispatch pauses with commit
                    if commit_floor > fetch_cycle:
                        fetch_cycle = commit_floor
                        fetch_slots = 0
                        current_fetch_line = -1
                hook_row = i + 1 if skip is None else hook.next_row
            elif skip is not None:
                skip(commit_cycle)

        # box the loop state back up for the next resume
        state.next_row = stop
        state.rob_head = rob_head
        state.iq_head = iq_head
        state.lq_head = lq_head
        state.sq_head = sq_head
        state.fetch_cycle = fetch_cycle
        state.fetch_slots = fetch_slots
        state.current_fetch_line = current_fetch_line
        state.icache_ready = icache_ready
        state.last_commit_cycle = last_commit_cycle
        state.commit_slots = commit_slots
        state.commit_floor = commit_floor
        state.stall_cycles_total = stall_cycles_total
        state.total_uops = total_uops

    def finish_run(
        self,
        trace: Trace,
        hook: CommitHook | None,
        state: CoreRunState,
    ) -> CoreResult:
        """Close a run whose rows have all been advanced; returns totals."""
        total_cycles = state.last_commit_cycle + 1
        system_cycles = total_cycles
        if hook is not None:
            system_cycles = hook.finish(total_cycles)
        return CoreResult(
            cycles=total_cycles,
            instructions=len(trace),
            uops=state.total_uops,
            system_cycles=system_cycles,
            branch_lookups=self.predictor.lookups,
            branch_mispredicts=(self.predictor.direction_mispredicts
                                + self.predictor.target_mispredicts),
            l1d_misses=self.hierarchy.l1d.misses,
            l2_misses=self.hierarchy.l2.misses,
            commit_stall_cycles=state.stall_cycles_total,
        )

    def run(
        self,
        trace: Trace,
        hook: CommitHook | None = None,
    ) -> CoreResult:
        """Simulate the committed ``trace``; returns timing totals.

        If ``hook`` is given, its pre/post-commit methods are invoked in
        commit order as :class:`CommitHook` describes (this is how the
        parallel error detection attaches to the core).
        """
        if hook is not None:
            hook.begin(trace)
        state = self.start_state()
        self.run_rows(trace, hook, state, len(trace))
        return self.finish_run(trace, hook, state)
