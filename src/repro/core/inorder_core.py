"""In-order checker-core timing model (paper §IV-B, Figure 4).

A small scalar 4-stage pipeline: issues at most one instruction per cycle,
functional units are pipelined (so back-to-back independent FP operations
sustain one per cycle) but a consumer of a not-yet-ready result interlocks.
Loads and stores are serviced from the core's load-store log segment in a
single cycle — the checker has **no data cache**.  Instruction fetch goes
through the private L0 I-cache and the shared checker L1I.

Branches use static not-taken prediction with a short taken-branch bubble;
the pipeline is short, so the penalty is small (Figure 4's design point).

All times are in *checker-core cycles*; the detection system converts to
ticks using the checker clock, which is the axis of the paper's Figure 9
frequency sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CheckerConfig
from repro.isa.instructions import NUM_FP_REGS, NUM_INT_REGS
from repro.isa.meta import ProgramMeta
from repro.memory.hierarchy import CheckerICaches

#: Bubble cycles after a taken branch (fetch redirect in a 4-stage pipe).
TAKEN_BRANCH_PENALTY = 2

#: Cycles to read the next entry from the load-store log segment.
LOG_READ_LATENCY = 1


@dataclass
class SegmentTiming:
    """Timing of one replayed segment on a checker core."""

    #: checker cycle (relative to segment start) each log entry was checked
    entry_check_cycles: list[int]
    #: total checker cycles to execute the segment, including the final
    #: register-checkpoint comparison
    total_cycles: int


#: Cycles to compare the architectural register file against the end
#: checkpoint (two-ported file, 32+32 registers, matching the main core's
#: 16-cycle checkpoint copy cost).
CHECKPOINT_COMPARE_CYCLES = 16


class InOrderCoreModel:
    """Timing model for one checker core."""

    __slots__ = ("config", "icaches", "core_id")

    def __init__(self, config: CheckerConfig, icaches: CheckerICaches,
                 core_id: int) -> None:
        self.config = config
        self.icaches = icaches
        self.core_id = core_id

    def run_segment(
        self,
        steps: list[tuple[int, bool]],
        metas: ProgramMeta,
        start_cycle: int = 0,
    ) -> SegmentTiming:
        """Time the replay of one segment.

        ``steps`` is the replayed instruction sequence as ``(pc, taken)``
        pairs (produced by the functional replay in
        :mod:`repro.detection.checker`).  Returns per-log-entry check cycles
        relative to ``start_cycle`` == 0 of the segment.
        """
        icaches = self.icaches
        core_id = self.core_id
        rows = metas.inorder
        reg_ready = [0] * (NUM_INT_REGS + NUM_FP_REGS)
        cycle = start_cycle
        current_line = -1
        fetch_ready = start_cycle
        entry_checks: list[int] = []

        for pc, taken in steps:
            (fetch_addr, line, srcs, dsts, mem, uops, latency,
             non_pipelined, nondet, control) = rows[pc]
            if line != current_line:
                fetch_ready = icaches.access(core_id, fetch_addr, cycle)
                current_line = line
            if fetch_ready > cycle:
                cycle = fetch_ready

            # operand interlock
            for reg in srcs:
                if reg_ready[reg] > cycle:
                    cycle = reg_ready[reg]

            if mem:
                # log segment read + hardware compare, per micro-op
                done = cycle + LOG_READ_LATENCY * uops
                for _ in range(uops):
                    entry_checks.append(done - start_cycle)
            else:
                done = cycle + latency
                if nondet:
                    # non-deterministic results consumed from the log
                    entry_checks.append(done - start_cycle)

            for reg in dsts:
                reg_ready[reg] = done

            if non_pipelined:
                cycle = done  # unit blocks the scalar pipe
            else:
                cycle += 1
            if taken and control:
                cycle += TAKEN_BRANCH_PENALTY
                current_line = -1

        total = (cycle - start_cycle) + CHECKPOINT_COMPARE_CYCLES
        return SegmentTiming(entry_check_cycles=entry_checks, total_cycles=total)
