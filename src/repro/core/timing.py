"""Timing models and golden timing records (ROADMAP item 2).

Fork-point injection (PR 5/6) removed the clean-execution prefix from
fault jobs; this module does the same for *timing*.  Two mechanisms:

* **Golden timing records.**  ``time_bare`` times a clean trace with the
  exact cycle model exactly once, capturing per-instruction columns
  (issue/commit cycles, branch outcome, per-row L1D/L2 miss deltas) plus
  the full :class:`CoreResult`.  Records are memoised on the trace and
  published into the trace-store envelope (schema v4), so warm campaigns
  serve clean-run timing without touching the OoO loop at all.  The
  served result is byte-identical to a fresh run by construction — it
  *is* the stored output of one.

* **The TimingModel seam.**  Fault-classification runs pick a model per
  :class:`~repro.harness.campaign.JobSpec` (folded into cache keys —
  cache schema v6):

  - ``cycle`` — the exact OoO model.  With a forked faulty trace, the
    detection system additionally splices golden timing state at the
    fork seq and re-times only the suffix (see
    ``repro.detection.system``); records stay byte-identical because the
    same loop resumes from the same state.
  - ``interval`` — a calibrated analytical model: per-row commit
    estimates come from the golden commit column (extrapolated at the
    golden mean CPI past its end), detection-hook stalls accumulate into
    a running offset, and commit stays monotone.  Verdicts
    (detected/undetected/crashed/masked) are *exactly* those of the
    cycle model — they are functional, not timing, properties — while
    detection latencies are approximations whose orderings track the
    cycle model.  Use it for coverage-style campaigns where exact cycles
    do not change the answer.

Environment overrides (validation kill-switches, mirroring
``REPRO_FORK_INJECTION``):

* ``REPRO_TIMING_MODE=cycle|interval`` forces a model regardless of what
  the job requested;
* ``REPRO_TIMING_SPLICE=0`` disables the pre-fork timing splice (full
  re-timing), used by the identity gates to prove the splice is
  unobservable.
"""

from __future__ import annotations

import copy
import os
from contextlib import contextmanager

from repro.common.config import SystemConfig
from repro.core.ooo_core import CommitHook, CoreResult, OoOCore
from repro.isa.executor import Trace

#: Forces a timing model process-wide when set (``cycle`` or ``interval``).
TIMING_MODE_ENV = "REPRO_TIMING_MODE"

#: Set to ``0`` to disable pre-fork timing splicing (full re-timing).
TIMING_SPLICE_ENV = "REPRO_TIMING_SPLICE"

#: The timing models a job may request.
TIMING_MODES = ("cycle", "interval")

_requested_mode = "cycle"


def timing_splice_enabled() -> bool:
    """Pre-fork timing splicing is on unless explicitly disabled."""
    return os.environ.get(TIMING_SPLICE_ENV, "1") != "0"


@contextmanager
def timing_mode(mode: str):
    """Request a timing model for runs inside this context.

    The campaign engine wraps job execution in this so the model travels
    with the :class:`JobSpec` rather than with call sites.  The
    ``REPRO_TIMING_MODE`` environment override still wins.
    """
    if mode not in TIMING_MODES:
        raise ValueError(f"unknown timing mode {mode!r}; expected one of "
                         f"{TIMING_MODES}")
    global _requested_mode
    previous = _requested_mode
    _requested_mode = mode
    try:
        yield
    finally:
        _requested_mode = previous


def resolve_timing_mode() -> str:
    """The model in effect: environment override, else the requested one."""
    env = os.environ.get(TIMING_MODE_ENV)
    if env:
        if env not in TIMING_MODES:
            raise ValueError(f"{TIMING_MODE_ENV}={env!r}: expected one of "
                             f"{TIMING_MODES}")
        return env
    return _requested_mode


def config_key(config: SystemConfig) -> str:
    """Stable content hash of a full system configuration.

    Keys golden timing records both in-process (``trace.timings``) and in
    trace-store v4 envelopes; also the campaign layer's config
    fingerprint, so the two can never disagree.  Computed once per
    config object (:attr:`SystemConfig.fingerprint`).
    """
    return config.fingerprint


class TimingColumns:
    """Append-target for :meth:`OoOCore.run_rows` recording."""

    __slots__ = ("issue", "commit", "branch", "l1d", "l2")

    def __init__(self) -> None:
        self.issue: list[int] = []
        self.commit: list[int] = []
        self.branch: list[int] = []
        self.l1d: list[int] = []
        self.l2: list[int] = []


class TimingRecord:
    """One clean trace timed once under one configuration.

    ``issue``/``commit`` are per-row cycles; ``branch`` is -1 (not a
    branch), 0 (predicted) or 1 (mispredicted); ``l1d``/``l2`` are
    per-row miss deltas.  Columns may be lists (fresh) or zero-copy
    memoryviews (served from a store envelope) — consumers index, never
    mutate.
    """

    __slots__ = ("result", "issue", "commit", "branch", "l1d", "l2")

    def __init__(self, result: CoreResult, issue, commit, branch, l1d, l2):
        self.result = result
        self.issue = issue
        self.commit = commit
        self.branch = branch
        self.l1d = l1d
        self.l2 = l2


def time_bare(trace: Trace, config: SystemConfig) -> CoreResult:
    """Exact-cycle timing of a clean (hookless) run of ``trace``.

    First call per (trace, config) runs the OoO model while recording the
    golden timing columns; the record is memoised on the trace and, when
    the trace is bound to a store envelope, published there (schema v4).
    Subsequent calls — including in later processes reading the same
    store — return the recorded :class:`CoreResult` without re-timing.
    """
    record = timing_record(trace, config)
    return copy.copy(record.result)


def timing_record(trace: Trace, config: SystemConfig) -> TimingRecord:
    """The golden timing record for ``trace`` under ``config``
    (computing, memoising and publishing it on first use)."""
    key = config_key(config)
    record = trace.timings.get(key)
    if record is None:
        columns = TimingColumns()
        result = OoOCore(config).run(trace, record=columns)
        record = TimingRecord(
            result=result,
            issue=columns.issue,
            commit=columns.commit,
            branch=columns.branch,
            l1d=columns.l1d,
            l2=columns.l2,
        )
        trace.timings[key] = record
        binding = trace.store_ref
        if binding is not None:
            store, store_key = binding
            store.put_timing(store_key, trace, key, record)
    return record


class TimingModel:
    """How a detection-system run turns a committed trace into cycles."""

    name: str

    def drive(self, trace: Trace, config: SystemConfig, hook: CommitHook,
              base: TimingRecord | None) -> CoreResult:
        raise NotImplementedError


class CycleTimingModel(TimingModel):
    """The exact OoO model (the default)."""

    name = "cycle"

    def drive(self, trace, config, hook, base=None):
        return OoOCore(config).run(trace, hook)


class IntervalTimingModel(TimingModel):
    """Calibrated analytical commit times off the golden commit column.

    Row ``i`` commits no earlier than the golden run's row-``i`` commit
    cycle plus the hook stalls accumulated so far; rows past the golden
    column's end extrapolate at the golden mean CPI.  The hook runs
    unchanged (segments, load forwarding, checker replay, checker-core
    occupancy), so everything *functional* about a detection run is
    exactly the cycle model's; only cycle counts are approximate.
    """

    name = "interval"

    def drive(self, trace, config, hook, base):
        if base is None:
            raise ValueError("interval timing needs a golden timing record")
        commit = base.commit
        n_base = len(commit)
        base_end = commit[n_base - 1] if n_base else 0
        cpi = base.result.cycles / max(1, n_base)
        total = len(trace)

        if hook is not None:
            hook.begin(trace)
        last = 0
        offset = 0
        stalls = 0
        for i in range(total):
            if i < n_base:
                estimate = commit[i] + offset
            else:
                estimate = base_end + int((i + 1 - n_base) * cpi) + offset
            earliest = estimate if estimate > last else last
            if hook is not None:
                held = hook.pre_commit(i, earliest)
                if held > earliest:
                    stalls += held - earliest
                    offset += held - earliest
                    earliest = held
            commit_cycle = earliest
            last = commit_cycle
            if hook is not None:
                pause = hook.post_commit(i, commit_cycle)
                if pause:
                    stalls += pause
                    offset += pause
        total_cycles = last + 1
        system_cycles = total_cycles
        if hook is not None:
            system_cycles = hook.finish(total_cycles)
        golden = base.result
        return CoreResult(
            cycles=total_cycles,
            instructions=total,
            uops=trace.uop_count,
            system_cycles=system_cycles,
            # micro-architectural counters are not modelled analytically;
            # carry the golden run's (documented approximation)
            branch_lookups=golden.branch_lookups,
            branch_mispredicts=golden.branch_mispredicts,
            l1d_misses=golden.l1d_misses,
            l2_misses=golden.l2_misses,
            commit_stall_cycles=stalls,
        )


_MODELS = {
    "cycle": CycleTimingModel(),
    "interval": IntervalTimingModel(),
}


def timing_model(mode: str | None = None) -> TimingModel:
    """The :class:`TimingModel` for ``mode`` (default: the resolved one)."""
    return _MODELS[mode if mode is not None else resolve_timing_mode()]
