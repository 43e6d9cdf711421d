"""Dual-core lockstep as a pluggable protection scheme (§II-B, §VII-A).

The industry-standard scheme (Cortex-R, IBM G5, Compaq Himalaya): the
program runs simultaneously on two identical cores, possibly with a small
fixed delay on the trailing core to decorrelate transients, and comparator
logic checks results every cycle.

Characteristics reproduced here (Figure 1(d)):

* **performance**: negligible overhead — only the (re)start skew and the
  comparator's pipeline delay (:func:`run_lockstep`);
* **detection latency**: a few cycles — the comparator sees results as
  they commit;
* **area / energy**: both ≈ doubled, the whole point of the paper's
  alternative.

The fault model captures what a cycle-by-cycle commit comparator does:
the redundant core does not experience the transient, so any activated
fault — one that changed a committed value — diverges the two commit
streams and is caught within the skew plus the comparator depth.  That
is also why lockstep covers *hard* faults: the redundant computation
runs on physically separate hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.common.time import ticks_to_ns, ticks_to_us
from repro.core.ooo_core import CoreResult
from repro.core.timing import time_bare
from repro.detection.faults import TransientFault
from repro.isa.executor import Trace
from repro.schemes.base import (
    FaultVerdict,
    ProtectionScheme,
    SchemeSummary,
    SchemeTiming,
)
from repro.schemes.registry import register_scheme

#: Cycles the trailing core runs behind the leading core (decorrelates
#: spatially-correlated transients; typical small fixed skew).
DEFAULT_SKEW_CYCLES = 2

#: Pipeline depth of the comparator checking committed results.
COMPARATOR_DEPTH_CYCLES = 1


@dataclass(frozen=True)
class LockstepResult:
    """Timing + overhead summary for a dual-core lockstep run."""

    core: CoreResult
    cycles: int
    slowdown_vs_unprotected: float
    detection_latency_ns: float
    area_overhead: float
    energy_overhead: float


def run_lockstep(trace: Trace, config: SystemConfig,
                 skew_cycles: int = DEFAULT_SKEW_CYCLES) -> LockstepResult:
    """Time ``trace`` under dual-core lockstep.

    Both cores execute the full program; the pair finishes when the
    trailing core does.  Energy is doubled because every instruction
    executes twice on identical hardware; area is doubled because the
    second core is a full copy.
    """
    base = time_bare(trace, config)
    cycles = base.cycles + skew_cycles + COMPARATOR_DEPTH_CYCLES
    period = config.main_core.clock().period_ticks
    detection_latency = ticks_to_ns(
        (skew_cycles + COMPARATOR_DEPTH_CYCLES) * period)
    return LockstepResult(
        core=base,
        cycles=cycles,
        slowdown_vs_unprotected=cycles / base.cycles,
        detection_latency_ns=detection_latency,
        area_overhead=1.0,    # a second identical core
        energy_overhead=1.0,  # every instruction executed twice
    )


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
