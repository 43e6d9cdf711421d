"""The unified protection-scheme interface (paper Figure 1, §VII).

The paper's argument is a *comparison between protection schemes*:
unprotected, dual-core lockstep, redundant multithreading, and its own
heterogeneous parallel-detection design.  Every scheme here implements
one :class:`ProtectionScheme` interface —

* :meth:`~ProtectionScheme.time`: a fault-free timing run of a committed
  trace, returning a :class:`SchemeTiming` (protected and unprotected
  cycle counts plus the scheme's characteristic detection latency);
* :meth:`~ProtectionScheme.inject_batch`: a cell of fault-injection
  trials against one clean trace — a single ``fault`` job is a cell of
  one — returning one :class:`FaultVerdict` per fault;
* :meth:`~ProtectionScheme.classify`: the per-scheme half of a trial,
  sorting one executed faulty run into the §IV-I coverage buckets;
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
from typing import Iterator, Sequence

from repro.common.config import SystemConfig
from repro.detection.faults import (
    FaultInjector,
    HardFault,
    TransientFault,
    fork_seq_of,
)
from repro.isa.executor import (
    Trace,
    execute_forked,
    execute_program,
    fork_cursor,
    same_final_registers,
)

#: Environment switch for fork-point fault execution: set to ``0`` to
#: force every fault job down the full-execution path (the benchmark
#: uses this to measure the speedup; workers inherit it, so one setting
#: governs serial, pool, and manifest execution alike).
FORK_INJECTION_ENV = "REPRO_FORK_INJECTION"


def fork_injection_enabled() -> bool:
    """Whether fault jobs may use the fork-point execution path."""
    return os.environ.get(FORK_INJECTION_ENV, "1") != "0"

#: Classification buckets shared by every scheme's verdict
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
    """True when a fault left no architecturally visible difference:
    the same row count, the same final registers (FP ones by bit
    pattern, see :func:`~repro.isa.executor.same_final_registers`) and
    the same nonzero memory words."""
    if len(clean) != len(faulty):
        return False
    if not same_final_registers(clean, faulty):
        return False
    clean_mem = {a: v for a, v in clean.memory.items() if v}
    faulty_mem = {a: v for a, v in faulty.memory.items() if v}
    return clean_mem == faulty_mem


class ProtectionScheme(abc.ABC):
    """One error-detection scheme, pluggable into campaigns and figures.

    Subclasses set the class attributes and implement :meth:`time`,
    :meth:`classify` and :meth:`overheads`; fault execution is shared
    (:meth:`faulty_runs`, driven by :meth:`inject_batch`), so every
    scheme runs its faults down the same fork-or-full path.  Instances
    are stateless, so one shared instance per registry entry serves
    every worker process.
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
    #: ``classify`` reads the faulty trace's architectural outcome
    #: (final state, length, crash flag).  Schemes that classify from
    #: the activation list alone — lockstep and RMT detect any committed
    #: divergence at the comparator, long before the program ends — set
    #: this False, and injection stops executing once the last fault has
    #: had its chance to strike: the discarded suffix cannot change the
    #: verdict, so the records stay byte-identical.  Schemes that keep
    #: it True still skip the suffix of a fault that never fired: once
    #: its injector goes inert unfired, the fork path hands back the
    #: golden trace itself (see ``execute_forked``).  Every scheme's
    #: ``classify`` answers ``not_activated`` from the activation list
    #: before it reads that trace.
    verdict_needs_outcome: bool = True

    def _stop_seq(self, injector: FaultInjector) -> int | None:
        """Earliest seq injection may stop at without changing this
        scheme's verdict, or None when it must run to completion."""
        if self.verdict_needs_outcome:
            return None
        last = injector.last_execution_seq()
        return None if last is None else last + 1

    def faulty_runs(
        self, clean: Trace, faults: Sequence[TransientFault | HardFault],
    ) -> Iterator[tuple[int, FaultInjector, Trace]]:
        """Execute each of ``faults`` against ``clean``'s program, one at
        a time in fork-seq order (:func:`~repro.detection.faults.fork_seq_of`
        of each fault), yielding ``(index into faults, injector, faulty
        committed trace)``.

        The fork-point path runs unless :data:`FORK_INJECTION_ENV`
        vetoes it; otherwise every fault re-executes the whole program.
        Every forked run takes its fork state from the process's one
        :class:`~repro.isa.executor.ForkCursor` over ``clean``
        (:func:`~repro.isa.executor.fork_cursor`), which outlives the
        call: a cell walks it forward once, and one-fault jobs run in
        fork order each replay only the golden rows since the previous
        job's fork.  A forked run that no fault perturbed by the time
        its injector went inert yields ``clean`` itself, with no column
        copied; any other forked run splices the golden prefix.  Both
        paths yield byte-identical activation lists, and byte-identical
        traces for every fault that fired or crashed the run; an
        unperturbed run's trace equals ``clean`` (or its prefix, when
        injection stopped early), so which path ran is unobservable in
        any record.  Schemes whose verdict never reads the outcome
        additionally stop right after the last fault seq (again on both
        paths, so the identity between them holds).  Each injector is
        built just before its run: an attached injector keeps its
        machine and memory image alive.
        """
        total = len(clean)
        order = sorted(range(len(faults)),
                       key=lambda i: fork_seq_of((faults[i],), total))
        cursor = fork_cursor(clean) if fork_injection_enabled() else None
        for i in order:
            injector = FaultInjector([faults[i]])
            stop_seq = self._stop_seq(injector)
            if cursor is not None:
                faulty = execute_forked(clean, injector, stop_seq=stop_seq,
                                        state_source=cursor.state)
            else:
                faulty = execute_program(clean.program,
                                         fault_injector=injector,
                                         stop_seq=stop_seq)
            yield i, injector, faulty

    @abc.abstractmethod
    def time(self, trace: Trace, config: SystemConfig) -> SchemeTiming:
        """Time ``trace`` under this scheme (fault-free)."""

    def inject_batch(self, trace: Trace, config: SystemConfig,
                     faults: tuple[TransientFault, ...],
                     interrupt_seqs: tuple[int, ...] = (),
                     ) -> list[FaultVerdict]:
        """Inject each of ``faults`` into a run of ``trace``'s program
        and classify the outcome; ``trace`` is the *clean* reference
        execution.  The only way a fault is executed and classified: a
        ``fault`` job is a cell of one, a ``fault-batch`` job a whole
        grid cell against the same golden trace.

        Each fault is classified as soon as :meth:`faulty_runs` has
        executed it, and its trace dropped, so a cell of any size holds
        one faulty trace at a time.  Verdicts come back in the caller's
        fault order and do not depend on the cell around a fault: the
        fork cursor is the same pure function of (golden, fork seq)
        that ``fork_state`` computes, and classification reads only its
        own trial.
        """
        verdicts: list[FaultVerdict | None] = [None] * len(faults)
        for i, injector, faulty in self.faulty_runs(trace, faults):
            verdicts[i] = self.classify(trace, config, faults[i], injector,
                                        faulty, interrupt_seqs)
        return verdicts

    @abc.abstractmethod
    def classify(self, clean: Trace, config: SystemConfig,
                 fault: TransientFault, injector: FaultInjector,
                 faulty: Trace,
                 interrupt_seqs: tuple[int, ...] = ()) -> FaultVerdict:
        """Classify one injection trial given its committed faulty trace
        (produced by :meth:`faulty_runs`)."""

    @abc.abstractmethod
    def overheads(self, timing: SchemeTiming,
                  config: SystemConfig) -> SchemeSummary:
        """The Figure 1(d) row, derived from a measured ``timing`` run."""

    def recover(self, clean: Trace, faulty: Trace, config: SystemConfig):
        """Detect→rollback→re-execute on a faulty trace, judged against
        its fault-free run ``clean`` (schemes with ``supports_recovery``
        only)."""
        raise ValueError(
            f"scheme {self.name!r} does not support recovery campaigns")
