"""The unified protection-scheme interface (paper Figure 1, §VII).

The paper's argument is a *comparison between protection schemes*:
unprotected, dual-core lockstep, redundant multithreading, and its own
heterogeneous parallel-detection design.  Every scheme here implements
one :class:`ProtectionScheme` interface —

* :meth:`~ProtectionScheme.time`: a fault-free timing run of a committed
  trace, returning a :class:`SchemeTiming` (protected and unprotected
  cycle counts plus the scheme's characteristic detection latency);
* :meth:`~ProtectionScheme.inject`: one fault-injection trial, returning
  a :class:`FaultVerdict` classified into the §IV-I coverage buckets;
* :meth:`~ProtectionScheme.overheads`: the Figure 1(d) comparison row
  (:class:`SchemeSummary`), derived from a *measured* timing run rather
  than hand-assembled constants;
* capability flags (``detects_faults``, ``covers_hard_faults``,
  ``supports_recovery``) that campaign grids and the CLI use to decide
  what a scheme can be asked to do.

Schemes register under a stable name via
:func:`repro.schemes.registry.register_scheme`; everything downstream
(campaign engine, figure harness, CLI) addresses them only through the
registry, so adding a scheme is one module with one decorator.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.detection.faults import FaultInjector, HardFault, TransientFault
from repro.isa.executor import (
    ForkCursor,
    Trace,
    execute_forked,
    execute_program,
)
from repro.isa.memory_image import float_to_bits

#: Environment switch for fork-point fault execution: set to ``0`` to
#: force every fault job down the full-execution path (the benchmark
#: uses this to measure the speedup; workers inherit it, so one setting
#: governs serial, pool, and manifest execution alike).
FORK_INJECTION_ENV = "REPRO_FORK_INJECTION"


def fork_injection_enabled() -> bool:
    """Whether fault jobs may use the fork-point execution path."""
    return os.environ.get(FORK_INJECTION_ENV, "1") != "0"

#: Classification buckets shared by every scheme's ``inject`` verdict
#: (mirrors ``repro.common.records.FAULT_OUTCOMES``).
VERDICT_OUTCOMES = ("not_activated", "masked", "detected", "escaped")


@dataclass(frozen=True)
class SchemeTiming:
    """A fault-free timing run of one trace under one scheme."""

    #: cycles the protected run took on the main core
    cycles: int
    #: cycles the same trace takes on a bare, unprotected main core
    base_cycles: int
    instructions: int
    #: cycle the whole system finished (checks drained, comparator idle)
    system_cycles: int
    #: the scheme's characteristic error-detection latency for this run,
    #: in nanoseconds (None = the scheme detects nothing)
    detection_latency_ns: float | None

    @property
    def slowdown(self) -> float:
        return self.cycles / self.base_cycles if self.base_cycles else 0.0


@dataclass(frozen=True)
class FaultVerdict:
    """One fault-injection trial, classified by a scheme."""

    #: the fault actually changed an architectural value
    activated: bool
    #: one of :data:`VERDICT_OUTCOMES`
    outcome: str
    #: fault-to-detection latency in microseconds (detected trials only)
    detect_latency_us: float | None = None
    #: position of the first failing check, for schemes that localise
    #: errors (the paper scheme's segment/entry indices)
    first_error_segment: int | None = None
    first_error_entry: int | None = None


@dataclass(frozen=True)
class SchemeSummary:
    """Qualitative + quantitative comparison row (paper Figure 1(d))."""

    name: str
    slowdown: float
    area_overhead: float
    energy_overhead: float
    #: typical error-detection latency in nanoseconds (None = no detection)
    detection_latency_ns: float | None


def architecturally_masked(clean: Trace, faulty: Trace) -> bool:
    """True when a fault left no architecturally visible difference.

    FP registers compare by IEEE-754 bit pattern — the comparison the
    paper's checkpoint/comparator hardware performs.  Python float
    equality would both drop NaN states (NaN != NaN on recomputation)
    and resurrect them via the identity shortcut when the fork path
    splices the golden trace's float objects, making the verdict depend
    on which execution path produced the trace.
    """
    if len(clean) != len(faulty):
        return False
    if clean.final_xregs != faulty.final_xregs:
        return False
    if [float_to_bits(v) for v in clean.final_fregs] != \
            [float_to_bits(v) for v in faulty.final_fregs]:
        return False
    clean_mem = {a: v for a, v in clean.memory.items() if v}
    faulty_mem = {a: v for a, v in faulty.memory.items() if v}
    return clean_mem == faulty_mem


class ProtectionScheme(abc.ABC):
    """One error-detection scheme, pluggable into campaigns and figures.

    Subclasses set the class attributes and implement the three methods;
    instances are stateless, so one shared instance per registry entry
    serves every worker process.
    """

    #: registry name (set by :func:`~repro.schemes.registry.register_scheme`)
    name: str = ""
    #: one-line description for ``repro list --schemes``
    description: str = ""
    #: the scheme can detect errors at all
    detects_faults: bool = False
    #: detection still works when the fault is permanent (spatial
    #: redundancy: the redundant computation runs on different hardware)
    covers_hard_faults: bool = False
    #: the scheme can drive detect→rollback→re-execute recovery
    supports_recovery: bool = False
    #: fault jobs may fork the stored golden trace at the earliest fault
    #: instead of re-executing the clean prefix (any scheme whose
    #: ``inject`` produces the faulty run with :meth:`faulty_trace`)
    supports_fork_injection: bool = False
    #: the scheme's ``classify`` re-*times* forked faulty traces through
    #: the detection pipeline, so it benefits from the pre-fork timing
    #: splice (``repro.detection.system``); schemes that classify from
    #: activations alone never time a faulty trace, and the splice (and
    #: ``REPRO_TIMING_SPLICE``) is vacuously unobservable for them
    supports_timing_splice: bool = False
    #: fault cells may run as one ``fault-batch`` job (``inject_batch``
    #: drains a whole cell against one golden trace); schemes whose
    #: classification pipeline is batch-safe — verdicts byte-identical
    #: to per-fault ``inject`` calls in any order — set this True
    supports_fault_batch: bool = False
    #: ``classify`` reads the faulty trace's architectural outcome
    #: (final state, length, crash flag).  Schemes that classify from
    #: the activation list alone — lockstep and RMT detect any committed
    #: divergence at the comparator, long before the program ends — set
    #: this False, and injection stops executing once the last fault has
    #: had its chance to strike: the discarded suffix cannot change the
    #: verdict, so the records stay byte-identical.  Schemes that keep
    #: it True still skip the suffix of a fault that never fired: the
    #: fork path splices the golden tail there (see ``execute_forked``).
    verdict_needs_outcome: bool = True

    def _stop_seq(self, injector: FaultInjector) -> int | None:
        """Earliest seq injection may stop at without changing this
        scheme's verdict, or None when it must run to completion."""
        if self.verdict_needs_outcome:
            return None
        last = injector.last_execution_seq()
        return None if last is None else last + 1

    def faulty_trace(
        self, clean: Trace, fault: TransientFault | HardFault,
    ) -> tuple[FaultInjector, Trace]:
        """Produce the faulty committed trace for one injection trial.

        Uses the fork-point path — state reconstructed at the earliest
        fault, golden prefix spliced, live execution only from there,
        and the golden tail spliced too when no fault fired before the
        injector went inert — when the scheme supports it and
        :data:`FORK_INJECTION_ENV` does not veto it; otherwise a full
        re-execution.  Both paths return byte-identical traces and
        activation lists, so which one ran is unobservable in any
        record.  Schemes whose verdict never reads the outcome
        additionally stop right after the last fault seq (again on both
        paths, so the identity between them holds).
        """
        injector = FaultInjector([fault])
        stop_seq = self._stop_seq(injector)
        if self.supports_fork_injection and fork_injection_enabled():
            faulty = execute_forked(clean, injector, stop_seq=stop_seq)
        else:
            faulty = execute_program(clean.program, fault_injector=injector,
                                     stop_seq=stop_seq)
        return injector, faulty

    @abc.abstractmethod
    def time(self, trace: Trace, config: SystemConfig) -> SchemeTiming:
        """Time ``trace`` under this scheme (fault-free)."""

    def inject(self, trace: Trace, config: SystemConfig,
               fault: TransientFault,
               interrupt_seqs: tuple[int, ...] = ()) -> FaultVerdict:
        """Inject ``fault`` into a run of ``trace``'s program and classify
        the outcome.  ``trace`` is the *clean* reference execution."""
        injector, faulty = self.faulty_trace(trace, fault)
        return self.classify(trace, config, fault, injector, faulty,
                             interrupt_seqs)

    def inject_batch(self, trace: Trace, config: SystemConfig,
                     faults: tuple[TransientFault, ...],
                     interrupt_seqs: tuple[int, ...] = (),
                     ) -> list[FaultVerdict]:
        """Classify a whole grid cell of faults against one golden trace.

        The batch path amortises fork-state reconstruction: faults are
        executed in fork-seq order through one :class:`ForkCursor`, so
        the golden columns are replayed once *total* (each row at most
        once across the whole cell) instead of once per fault.  Each
        fault is classified as soon as it has executed, after
        :meth:`plan_retiming` has seen it, and its trace dropped, so a
        cell holds one faulty trace at a time whatever its size.
        Verdicts come back in the caller's fault order and are
        byte-identical to ``[self.inject(trace, ...) for each fault]`` —
        the cursor is the same pure function of (golden, fork_seq) that
        ``fork_state`` computes, and classification is shared code.
        """
        faults = list(faults)
        if not (self.supports_fork_injection and fork_injection_enabled()):
            return [self.inject(trace, config, fault, interrupt_seqs)
                    for fault in faults]
        total = len(trace)
        order = sorted(
            range(len(faults)),
            key=lambda i: FaultInjector([faults[i]]).fork_seq(total))
        cursor = ForkCursor(trace)
        verdicts: list[FaultVerdict | None] = [None] * len(faults)
        for i in order:
            injector = FaultInjector([faults[i]])
            faulty = execute_forked(trace, injector,
                                    state_source=cursor.state,
                                    stop_seq=self._stop_seq(injector))
            self.plan_retiming(trace, config, faults[i], injector, faulty,
                               interrupt_seqs)
            verdicts[i] = self.classify(trace, config, faults[i], injector,
                                        faulty, interrupt_seqs)
        return verdicts

    def plan_retiming(self, clean: Trace, config: SystemConfig,
                      fault: TransientFault, injector: FaultInjector,
                      faulty: Trace,
                      interrupt_seqs: tuple[int, ...] = ()) -> None:
        """Called by :meth:`inject_batch` with each executed fault, in
        fork-seq order, right before :meth:`classify` sees it: a scheme
        that re-times faulty runs may schedule that timing here.  Pure
        scheduling: the verdicts must not depend on it."""

    @abc.abstractmethod
    def classify(self, clean: Trace, config: SystemConfig,
                 fault: TransientFault, injector: FaultInjector,
                 faulty: Trace,
                 interrupt_seqs: tuple[int, ...] = ()) -> FaultVerdict:
        """Classify one injection trial given its committed faulty trace
        (produced by :meth:`faulty_trace` or the batch cursor path)."""

    @abc.abstractmethod
    def overheads(self, timing: SchemeTiming,
                  config: SystemConfig) -> SchemeSummary:
        """The Figure 1(d) row, derived from a measured ``timing`` run."""

    def recover(self, faulty: Trace, config: SystemConfig):
        """Detect→rollback→re-execute on a faulty trace (schemes with
        ``supports_recovery`` only)."""
        raise ValueError(
            f"scheme {self.name!r} does not support recovery campaigns")

    def capabilities(self) -> dict[str, bool]:
        """The capability matrix row, keyed by flag name."""
        return {
            "detects_faults": self.detects_faults,
            "covers_hard_faults": self.covers_hard_faults,
            "supports_recovery": self.supports_recovery,
            "supports_fork_injection": self.supports_fork_injection,
            "supports_timing_splice": self.supports_timing_splice,
            "supports_fault_batch": self.supports_fault_batch,
        }
