"""The paper's heterogeneous parallel-detection scheme, as a plugin.

Wraps :mod:`repro.detection.system` (timing and fault classification)
and :mod:`repro.recovery.rollback` (the recovery extension) behind the
:class:`~repro.schemes.base.ProtectionScheme` interface.  This is the
only scheme whose ``inject`` runs the full detection pipeline — errors
surface through checker replay, never an oracle — and the only one with
``supports_recovery``.
"""

from __future__ import annotations

from repro.analysis.area import area_model
from repro.analysis.power import energy_overhead_per_run, power_model
from repro.common.config import SystemConfig
from repro.common.time import ticks_to_us
from repro.detection.faults import (
    EXECUTION_SITES,
    FaultInjector,
    TransientFault,
    system_faults,
)
from repro.detection.system import (
    prime_splice_cursor,
    run_unprotected,
    run_with_detection,
    splices,
)
from repro.isa.executor import Trace
from repro.schemes.base import (
    FaultVerdict,
    ProtectionScheme,
    SchemeSummary,
    SchemeTiming,
    architecturally_masked,
)
from repro.schemes.registry import register_scheme


def _hook_faults(fault: TransientFault,
                 interrupt_seqs: tuple[int, ...]) -> dict:
    """The detection-side arguments of one trial's detection run."""
    side = system_faults([fault])
    return {"checkpoint_faults": side["checkpoint"] or None,
            "checker_faults": side["checker"] or None,
            "interrupt_seqs": list(interrupt_seqs) or None}


def _activated(fault: TransientFault, injector: FaultInjector) -> bool:
    """Whether a trial must go through the detection pipeline: its fault
    fired, or sits on the detection side (a checkpoint or checker fault
    never touches the main core's execution, so never fires there)."""
    return bool(injector.activations) or fault.site not in EXECUTION_SITES


@register_scheme("detection")
class ParallelDetectionScheme(ProtectionScheme):
    """Heterogeneous parallel error detection (the paper's design)."""

    description = "committed load/store log replayed on small checker cores"
    detects_faults = True
    covers_hard_faults = True
    supports_recovery = True
    supports_fork_injection = True
    supports_timing_splice = True
    supports_fault_batch = True

    def time(self, trace: Trace, config: SystemConfig) -> SchemeTiming:
        # self-contained on purpose: a scheme-timing job is a pure
        # function of (trace, config), so it re-runs the unprotected
        # baseline rather than reaching into other jobs' cache entries —
        # cross-scheme sweeps stay correct under any worker/shard split
        base = run_unprotected(trace, config)
        result = run_with_detection(trace, config)
        return SchemeTiming(
            cycles=result.main_cycles,
            base_cycles=base.cycles,
            instructions=result.core.instructions,
            system_cycles=result.system_cycles,
            detection_latency_ns=result.report.mean_delay_ns(),
        )

    def plan_retiming(self, clean: Trace, config: SystemConfig,
                      fault: TransientFault, injector: FaultInjector,
                      faulty: Trace,
                      interrupt_seqs: tuple[int, ...] = ()) -> None:
        """Pre-register a spliced run's fork seq on the cell's shared
        timing-splice cursor, so the cursor's one monotone walk over the
        fork-seq-sorted cell snapshots the golden timed prefix at that
        *exact* seq and classification resumes the faulty run with zero
        golden re-timing.  A fault that never fired is never re-timed
        and plans no snapshot.  Pure scheduling: every verdict and
        record stays byte-identical to per-fault injection."""
        if (_activated(fault, injector)
                and splices(faulty, **_hook_faults(fault, interrupt_seqs))):
            prime_splice_cursor(clean, config, [faulty.fork_seq])

    def classify(self, clean: Trace, config: SystemConfig,
                 fault: TransientFault, injector, faulty: Trace,
                 interrupt_seqs: tuple[int, ...] = ()) -> FaultVerdict:
        if not _activated(fault, injector):
            return FaultVerdict(activated=False, outcome="not_activated")

        # `golden=clean` anchors the interval model's base timing curve to
        # the clean trace, so interval verdicts are identical whether the
        # faulty trace came from the fork path (fork_of set) or a full
        # re-execution (fork_of None); `verdict_only` lets the timing
        # stop once the verdict can no longer change
        detection = run_with_detection(
            faulty, config, golden=clean, verdict_only=True,
            **_hook_faults(fault, interrupt_seqs))
        if detection.detected:
            event = detection.first_event
            segment, entry = detection.first_error_position
            return FaultVerdict(
                activated=True, outcome="detected",
                detect_latency_us=ticks_to_us(
                    event.detect_tick - event.segment_close_tick),
                first_error_segment=segment, first_error_entry=entry)
        if architecturally_masked(clean, faulty):
            return FaultVerdict(activated=True, outcome="masked")
        return FaultVerdict(activated=True, outcome="escaped")

    def overheads(self, timing: SchemeTiming,
                  config: SystemConfig) -> SchemeSummary:
        slowdown = timing.slowdown
        area = area_model(config)
        power = power_model(config)
        return SchemeSummary(
            name=self.name,
            slowdown=slowdown,
            area_overhead=area.overhead_vs_core,
            energy_overhead=energy_overhead_per_run(slowdown, power.overhead),
            detection_latency_ns=timing.detection_latency_ns,
        )

    def recover(self, faulty: Trace, config: SystemConfig):
        """Detect→rollback→re-execute, returning a
        :class:`repro.recovery.rollback.RecoveryOutcome`."""
        from repro.recovery.rollback import detect_and_recover
        return detect_and_recover(faulty.program, faulty, config)
