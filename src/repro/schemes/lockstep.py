"""Dual-core lockstep as a pluggable protection scheme (paper §II-B).

Timing defers to :func:`repro.baselines.lockstep.run_lockstep`; the
fault model captures what a cycle-by-cycle commit comparator does: the
redundant core does not experience the transient, so any activated fault
— one that changed a committed value — diverges the two commit streams
and is caught within the skew plus the comparator depth.  That is also
why lockstep covers *hard* faults: the redundant computation runs on
physically separate hardware.
"""

from __future__ import annotations

from repro.baselines.lockstep import (
    COMPARATOR_DEPTH_CYCLES,
    DEFAULT_SKEW_CYCLES,
    run_lockstep,
)
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


@register_scheme("lockstep")
class LockstepScheme(ProtectionScheme):
    """Two identical cores, compared every cycle (Cortex-R, IBM G5)."""

    description = "dual identical cores with a per-cycle commit comparator"
    detects_faults = True
    covers_hard_faults = True
    supports_recovery = False
    # the comparator verdict is pure activation: any committed divergence
    # is detected at constant latency, so injection stops at the fault
    verdict_needs_outcome = False

    def time(self, trace: Trace, config: SystemConfig) -> SchemeTiming:
        result = run_lockstep(trace, config)
        return SchemeTiming(
            cycles=result.cycles,
            base_cycles=result.core.cycles,
            instructions=result.core.instructions,
            system_cycles=result.cycles,
            detection_latency_ns=result.detection_latency_ns,
        )

    def classify(self, clean: Trace, config: SystemConfig,
                 fault: TransientFault, injector, _faulty: Trace,
                 interrupt_seqs: tuple[int, ...] = ()) -> FaultVerdict:
        if not injector.activations:
            return FaultVerdict(activated=False, outcome="not_activated")
        # an activated fault changed a committed value on exactly one of
        # the two cores; the comparator sees the divergence as soon as
        # the trailing core commits the same instruction
        period = config.main_core.clock().period_ticks
        latency_ticks = (DEFAULT_SKEW_CYCLES
                         + COMPARATOR_DEPTH_CYCLES) * period
        return FaultVerdict(
            activated=True, outcome="detected",
            detect_latency_us=ticks_to_us(latency_ticks))

    def overheads(self, timing: SchemeTiming,
                  config: SystemConfig) -> SchemeSummary:
        return SchemeSummary(
            name=self.name,
            slowdown=timing.slowdown,
            area_overhead=1.0,    # a second identical core
            energy_overhead=1.0,  # every instruction executed twice
            detection_latency_ns=timing.detection_latency_ns,
        )
