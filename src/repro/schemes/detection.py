"""The paper's heterogeneous parallel-detection scheme, as a plugin.

Wraps :mod:`repro.detection.system` (timing and fault classification)
and :mod:`repro.recovery.rollback` (the recovery extension) behind the
:class:`~repro.schemes.base.ProtectionScheme` interface.  This is the
only scheme whose ``classify`` runs the full detection pipeline — errors
surface through checker replay, never an oracle — and the only one with
``supports_recovery``.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.analysis.area import area_model
from repro.analysis.power import energy_overhead_per_run, power_model
from repro.common.config import SystemConfig
from repro.common.time import ticks_to_us
from repro.core.timing import timing_splice_enabled
from repro.detection.faults import (
    EXECUTION_SITES,
    FaultInjector,
    TransientFault,
    system_faults,
)
from repro.detection.lslog import segment_starts
from repro.detection.system import run_unprotected, run_with_detection
from repro.isa.executor import Trace
from repro.schemes.base import (
    FaultVerdict,
    ProtectionScheme,
    SchemeSummary,
    SchemeTiming,
    architecturally_masked,
    fork_injection_enabled,
)
from repro.schemes.registry import register_scheme


@register_scheme("detection")
class ParallelDetectionScheme(ProtectionScheme):
    """Heterogeneous parallel error detection (the paper's design)."""

    description = "committed load/store log replayed on small checker cores"
    detects_faults = True
    covers_hard_faults = True
    supports_recovery = True

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

    def _stop(self, clean: Trace, injector: FaultInjector,
              config: SystemConfig | None,
              ) -> tuple[int | None, int | None]:
        """Stop a one-transient run once the log segment holding its row
        has closed: a single transient can fail only that segment, and
        the spliced verdict times through its close and reads no row
        past it (see :func:`repro.detection.system._spliced_detection_run`).

        Only when the fork path and the timing splice are both on (the
        spliced verdict is what reads a forked trace that far and no
        further), and the injector holds no hard fault and its
        execution-site transients sit on one seq inside the golden
        trace.  The segment holding that seq opens at the same
        row ``start`` on the golden and the faulty trace (every earlier
        row is a golden row), and on the faulty trace it closes by row
        ``start + timeout`` or once the log holds ``mem_off[start] +
        capacity`` entries: those are the stop.
        """
        seqs = set(injector.transients)
        if (config is None or injector.hard_faults or len(seqs) != 1
                or not fork_injection_enabled()
                or not timing_splice_enabled()):
            return None, None
        seq, = seqs
        if seq >= len(clean):
            return None, None
        starts = segment_starts(clean, config)
        start = starts[bisect_right(starts, seq) - 1]
        timeout = config.detection.instruction_timeout
        capacity = config.detection.segment_entries(config.checker.num_cores)
        return (None if timeout is None else start + timeout,
                clean.mem_off[start] + capacity)

    def classify(self, clean: Trace, config: SystemConfig,
                 fault: TransientFault, injector, faulty: Trace,
                 interrupt_seqs: tuple[int, ...] = ()) -> FaultVerdict:
        # a fault must go through the detection pipeline when it fired,
        # or sits on the detection side (a checkpoint or checker fault
        # never touches the main core's execution, so never fires there)
        if not injector.activations and fault.site in EXECUTION_SITES:
            return FaultVerdict(activated=False, outcome="not_activated")

        # `verdict_only` lets the timing stop once the verdict can no
        # longer change
        side = system_faults([fault])
        detection = run_with_detection(
            faulty, config, verdict_only=True,
            checkpoint_faults=side["checkpoint"] or None,
            checker_faults=side["checker"] or None,
            interrupt_seqs=list(interrupt_seqs) or None)
        if detection.detected:
            event = detection.first_event
            segment, entry = detection.first_error_position
            return FaultVerdict(
                activated=True, outcome="detected",
                detect_latency_us=ticks_to_us(
                    event.detect_tick - event.segment_close_tick),
                first_error_segment=segment, first_error_entry=entry)
        if not (faulty.halted or faulty.crashed):
            # the run stopped where its fault's segment closed (see
            # _stop), which passed: masked or escaped needs the whole
            # run.  The fork cursor still stands at its seq
            _, _, faulty = next(self.faulty_runs(clean, (fault,)))
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

    def recover(self, clean: Trace, faulty: Trace, config: SystemConfig):
        """Detect→rollback→re-execute, returning a
        :class:`repro.recovery.rollback.RecoveryOutcome`."""
        from repro.recovery.rollback import detect_and_recover
        return detect_and_recover(clean, faulty, config)
