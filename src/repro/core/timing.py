"""Golden timing and the pre-fork timing splice switch.

Fork-point injection (PR 5/6) removed the clean-execution prefix from
fault jobs; this module does the same for *timing*.  There is one
timing model, the exact OoO cycle model (:class:`OoOCore`).

* **Golden timing.**  Every slowdown the paper reports is divided by
  the unprotected main core's cycles, so a clean run owes one
  :class:`CoreResult` per (trace, config).  ``time_bare`` times a clean
  trace with the exact cycle model once, memoises the result on the
  trace and publishes it into the trace-store envelope (schema 5), so
  warm campaigns serve clean-run timing without touching the OoO loop
  at all.  The served result equals a fresh run by construction: it
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

    Keys golden timing both in-process (``trace.timings``) and in
    trace-store envelopes; also the campaign layer's config
    fingerprint, so the two can never disagree.  Computed once per
    config object (:attr:`SystemConfig.fingerprint`).
    """
    return config.fingerprint


def time_bare(trace: Trace, config: SystemConfig) -> CoreResult:
    """Exact-cycle timing of a clean (hookless) run of ``trace``.

    The first call per (trace, config) runs the OoO model; its
    :class:`CoreResult` is memoised on the trace and, when the trace is
    bound to a store envelope, published there.  Later calls, including
    those in later processes reading the same store, return a copy of
    that result without re-timing.
    """
    key = config_key(config)
    result = trace.timings.get(key)
    if result is None:
        result = OoOCore(config).run(trace)
        trace.timings[key] = result
        binding = trace.store_ref
        if binding is not None:
            store, store_key = binding
            store.put_timing(store_key, trace, key, result)
    return copy.copy(result)
