"""Redundant multithreading as a pluggable protection scheme (§II-B).

Timing defers to :func:`repro.baselines.rmt.run_rmt` (mechanistic SMT
resource contention).  Detection: the trailing thread recomputes every
instruction and the comparator checks results as the trailing copy
commits, so an activated transient is caught roughly one instruction
window behind the leading thread.  Both copies share the same hardware,
so a *hard* fault corrupts both identically and escapes — the
``covers_hard_faults`` flag is the one capability RMT lacks.
"""

from __future__ import annotations

from repro.baselines.rmt import RMT_AREA_OVERHEAD, RMT_ENERGY_OVERHEAD, run_rmt
from repro.common.config import SystemConfig
from repro.common.time import ticks_to_us
from repro.detection.faults import TransientFault
from repro.isa.executor import Trace
from repro.schemes.base import (
    FaultVerdict,
    ProtectionScheme,
    SchemeSummary,
    SchemeTiming,
)
from repro.schemes.registry import register_scheme


@register_scheme("rmt")
class RMTScheme(ProtectionScheme):
    """AR-SMT/CRT-style redundant thread on the same core."""

    description = "redundant SMT thread on the main core, compared at commit"
    detects_faults = True
    covers_hard_faults = False
    supports_recovery = False
    # the trailing-thread verdict is pure activation: any committed
    # divergence is caught one instruction window later, so injection
    # stops at the fault
    verdict_needs_outcome = False

    def time(self, trace: Trace, config: SystemConfig) -> SchemeTiming:
        result = run_rmt(trace, config)
        return SchemeTiming(
            cycles=result.cycles,
            base_cycles=result.base_cycles,
            instructions=result.core.instructions,
            system_cycles=result.cycles,
            detection_latency_ns=result.detection_latency_ns,
        )

    def classify(self, clean: Trace, config: SystemConfig,
                 fault: TransientFault, injector, _faulty: Trace,
                 interrupt_seqs: tuple[int, ...] = ()) -> FaultVerdict:
        if not injector.activations:
            return FaultVerdict(activated=False, outcome="not_activated")
        # the trailing thread lags by roughly the instruction window; the
        # comparator catches the divergence when the redundant copy of
        # the corrupted instruction commits
        period = config.main_core.clock().period_ticks
        latency_ticks = config.main_core.rob_entries * period
        return FaultVerdict(
            activated=True, outcome="detected",
            detect_latency_us=ticks_to_us(latency_ticks))

    def overheads(self, timing: SchemeTiming,
                  config: SystemConfig) -> SchemeSummary:
        return SchemeSummary(
            name=self.name,
            slowdown=timing.slowdown,
            area_overhead=RMT_AREA_OVERHEAD,
            energy_overhead=RMT_ENERGY_OVERHEAD,
            detection_latency_ns=timing.detection_latency_ns,
        )
