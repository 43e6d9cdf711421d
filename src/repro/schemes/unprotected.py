"""The unprotected scheme: a bare main core, no error detection.

The denominator of every normalised figure, the reference point for the
area/power overhead claims of §VI-B/C, and the control group of fault
campaigns: every activated, architecturally visible fault is a silent
data corruption here — the outcome the paper's coverage argument exists
to rule out.
"""

from __future__ import annotations

from repro.common.config import SystemConfig
from repro.core.ooo_core import CoreResult
from repro.core.timing import time_bare
from repro.detection.faults import TransientFault
from repro.isa.executor import Trace
from repro.schemes.base import (
    FaultVerdict,
    ProtectionScheme,
    SchemeSummary,
    SchemeTiming,
    architecturally_masked,
)
from repro.schemes.registry import register_scheme


def run_baseline(trace: Trace, config: SystemConfig) -> CoreResult:
    """Time ``trace`` on an unprotected main core (fresh caches/predictor).

    Served from the trace's golden timing record when one exists (the
    record *is* the stored output of this run — see
    :mod:`repro.core.timing`); recorded on first use otherwise."""
    return time_bare(trace, config)


@register_scheme("unprotected")
class UnprotectedScheme(ProtectionScheme):
    """No redundancy, no comparator — the paper's reference point."""

    description = "bare out-of-order main core, no detection"
    detects_faults = False
    covers_hard_faults = False
    supports_recovery = False

    def time(self, trace: Trace, config: SystemConfig) -> SchemeTiming:
        core = run_baseline(trace, config)
        return SchemeTiming(
            cycles=core.cycles,
            base_cycles=core.cycles,
            instructions=core.instructions,
            system_cycles=core.system_cycles,
            detection_latency_ns=None,
        )

    def classify(self, clean: Trace, config: SystemConfig,
                 fault: TransientFault, injector, faulty: Trace,
                 interrupt_seqs: tuple[int, ...] = ()) -> FaultVerdict:
        if not injector.activations:
            return FaultVerdict(activated=False, outcome="not_activated")
        if architecturally_masked(clean, faulty):
            return FaultVerdict(activated=True, outcome="masked")
        return FaultVerdict(activated=True, outcome="escaped")

    def overheads(self, timing: SchemeTiming,
                  config: SystemConfig) -> SchemeSummary:
        # every overhead is *derived* from the measured run: the slowdown
        # is cycles over base cycles (1.0 by construction here, but the
        # division keeps the row honest if the timing model ever changes)
        return SchemeSummary(
            name=self.name,
            slowdown=timing.slowdown,
            area_overhead=0.0,
            energy_overhead=0.0,
            detection_latency_ns=timing.detection_latency_ns,
        )
