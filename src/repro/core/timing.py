"""Golden timing records and the pre-fork timing splice switch.

Fork-point injection (PR 5/6) removed the clean-execution prefix from
fault jobs; this module does the same for *timing*.  There is one
timing model, the exact OoO cycle model (:class:`OoOCore`).

* **Golden timing records.**  ``time_bare`` times a clean trace with the
  exact cycle model exactly once, capturing per-instruction columns
  (issue/commit cycles, branch outcome, per-row L1D/L2 miss deltas) plus
  the full :class:`CoreResult`.  Records are memoised on the trace and
  published into the trace-store envelope (schema v4), so warm campaigns
  serve clean-run timing without touching the OoO loop at all.  The
  served result is byte-identical to a fresh run by construction — it
  *is* the stored output of one.

* **The timing splice.**  With a forked faulty trace, the detection
  system resumes golden timing state at the fork seq and re-times only
  the suffix (see ``repro.detection.system``); records stay
  byte-identical because the same loop resumes from the same state.
  ``REPRO_TIMING_SPLICE=0`` disables it (full re-timing), a validation
  kill-switch mirroring ``REPRO_FORK_INJECTION`` that the identity gates
  use to prove the splice is unobservable.
"""

from __future__ import annotations

import copy
import os

from repro.common.config import SystemConfig
from repro.core.ooo_core import CoreResult, OoOCore
from repro.isa.executor import Trace

#: Set to ``0`` to disable pre-fork timing splicing (full re-timing).
TIMING_SPLICE_ENV = "REPRO_TIMING_SPLICE"


def timing_splice_enabled() -> bool:
    """Pre-fork timing splicing is on unless explicitly disabled."""
    return os.environ.get(TIMING_SPLICE_ENV, "1") != "0"


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
