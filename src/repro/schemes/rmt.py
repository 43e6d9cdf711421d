"""Redundant multithreading as a pluggable protection scheme (§II-B, §VII-B).

AR-SMT / CRT-style schemes run a duplicate of the program as a second
simultaneous thread on the *same* core and compare results, trading
performance for area: no second core is needed, but the two threads share
fetch/issue/commit bandwidth and window resources, and Mukherjee et al.
report ≈ 32 % performance overhead.

Timing models the contention mechanistically (:func:`run_rmt`): the
leading thread runs on a core whose shared resources are split with the
trailing thread — half the ROB, IQ and LQ/SQ entries, and two-thirds of
the fetch/commit bandwidth (the trailing thread is cheaper per
instruction since its loads come from the load value queue, so the split
is not 50/50).  This reproduces the key qualitative behaviour: high-ILP
compute-bound code pays heavily, while memory-bound code hides the
sharing under its stalls.

Detection: the trailing thread recomputes every instruction and the
comparator checks results as the trailing copy commits, so an activated
transient is caught roughly one instruction window behind the leading
thread.  Both copies share the same hardware, so a *hard* fault corrupts
both identically and escapes (Blackjack adds another ≈ 15 % to cover
them) — the ``covers_hard_faults`` flag is the one capability RMT lacks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

#: Area added by RMT support (comparator, load value queue, thread state).
RMT_AREA_OVERHEAD = 0.05

#: Energy overhead: every instruction executes twice, with small savings
#: from shared fetch and the trailing thread's LVQ hits.
RMT_ENERGY_OVERHEAD = 0.90


@dataclass(frozen=True)
class RMTResult:
    """Timing + overhead summary for a redundant-multithreading run."""

    core: CoreResult
    cycles: int
    #: cycles of the same trace on the core without the redundant thread
    base_cycles: int
    slowdown_vs_unprotected: float
    detection_latency_ns: float
    area_overhead: float
    energy_overhead: float
    covers_hard_faults: bool


def rmt_config(config: SystemConfig) -> SystemConfig:
    """The leading thread's effective share of the SMT core."""
    mc = config.main_core
    shared = replace(
        mc,
        fetch_width=max(1, (2 * mc.fetch_width) // 3),
        commit_width=max(1, (2 * mc.commit_width) // 3),
        rob_entries=max(4, mc.rob_entries // 2),
        iq_entries=max(2, mc.iq_entries // 2),
        lq_entries=max(2, mc.lq_entries // 2),
        sq_entries=max(2, mc.sq_entries // 2),
        int_alus=max(1, (2 * mc.int_alus) // 3),
        fp_alus=max(1, mc.fp_alus // 2),
        muldiv_alus=max(1, mc.muldiv_alus // 2),
    )
    return replace(config, main_core=shared)


def run_rmt(trace: Trace, config: SystemConfig) -> RMTResult:
    """Time ``trace`` under redundant multi-threading on the main core."""
    # both runs are pure functions of (trace, config): served from the
    # trace's golden timing when present, timed otherwise
    base = time_bare(trace, config)
    shared = time_bare(trace, rmt_config(config))
    period = config.main_core.clock().period_ticks
    # the trailing thread lags by roughly the instruction window
    detection_latency = ticks_to_ns(config.main_core.rob_entries * period)
    return RMTResult(
        core=shared,
        cycles=shared.cycles,
        base_cycles=base.cycles,
        slowdown_vs_unprotected=shared.cycles / base.cycles,
        detection_latency_ns=detection_latency,
        area_overhead=RMT_AREA_OVERHEAD,
        energy_overhead=RMT_ENERGY_OVERHEAD,
        covers_hard_faults=False,
    )


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
