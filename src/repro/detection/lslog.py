"""The partitioned load-store log (paper §IV-D).

An SRAM structure that records, in commit order, every load (address +
forwarded value), every store (address + data) and every non-deterministic
result from the main core.  It is split into one fixed-size segment per
checker core (one-to-one, no arbitration — §IV-D).

In this reproduction that record already exists: it is the committed
trace's CSR memory columns (``mem_kind``, ``mem_addr`` and
``mem_value``, indexed through ``mem_off``).  So the log is a view of the
trace, not a copy of it: a :class:`Segment` names a row range of the
trace and holds references to its columns.

Where a segment closes is decided by one rule, :func:`segment_close`.
A segment closes when:

* it is **full** — including the macro-op rule: a macro-op's micro-ops may
  never straddle two segments, so an instruction whose entries do not all
  fit closes the current segment before it commits and writes all of
  them into the next;
* the **instruction timeout** is reached (§IV-J), bounding detection
  latency for stretches of code with few memory operations;
* an **interrupt / context switch** arrives (§IV-G);
* the **program terminates** (§IV-H), flushing the final partial segment.

The rule reads entry counts, the timeout and the next interrupt, never
time.  The detection hook (:mod:`repro.detection.system`) closes its
segments by it and adds time (stalls, checkpoint pauses, checker
dispatch); :func:`segment_starts` iterates it to find the segment
boundaries again, for rollback recovery (:mod:`repro.recovery.rollback`)
and for the detection scheme's fault path.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.detection.checkpoint import RegisterCheckpoint
from repro.isa.executor import LOAD, NONDET, STORE, Trace


class CloseReason(enum.Enum):
    """Why a log segment stopped filling."""

    FULL = "full"
    TIMEOUT = "timeout"
    INTERRUPT = "interrupt"
    TERMINATION = "termination"


def segment_close(mem_off: Sequence[int], start: int, total: int,
                  capacity: int, timeout: int | None = None,
                  interrupt: int | None = None,
                  ) -> tuple[int, CloseReason, bool]:
    """Where the segment that opens at row ``start`` of a ``total``-row
    trace closes, as ``(end, reason, on_commit)``: it holds rows
    ``[start, end)``.

    With ``on_commit`` it closes as row ``end - 1`` commits: FULL when
    that row's entries fill it, TIMEOUT on its ``timeout``-th row, and
    INTERRUPT on its first row at or past the pending ``interrupt`` seq,
    in that order of precedence.  Otherwise it closes before row ``end``
    commits: FULL on a macro-op overflow (row ``end``'s entries do not
    all fit, so they all go into the next segment), or TERMINATION when
    no other close comes first (``end == total``; an empty segment,
    ``start == total``, is never closed).

    Raises :class:`ConfigError` when a segment cannot hold one macro-op's
    entries, and when the segment opens at a row with more entries than
    it holds.
    """
    if capacity < 2:
        raise ConfigError(
            f"segment capacity {capacity} cannot hold one macro-op's "
            f"entries; enlarge the log")
    base = mem_off[start]
    # the first row whose entries reach the capacity: the first k > start
    # with mem_off[k] - base >= capacity, less one
    row = bisect_left(mem_off, base + capacity, start + 1, total + 1) - 1
    if row == total:
        end, reason, on_commit = total, CloseReason.TERMINATION, False
    elif mem_off[row + 1] - base == capacity:
        end, reason, on_commit = row + 1, CloseReason.FULL, True
    elif row > start:
        end, reason, on_commit = row, CloseReason.FULL, False
    else:
        raise ConfigError(
            f"an instruction produced {mem_off[row + 1] - mem_off[row]} log "
            f"entries but a segment holds only {capacity}")
    # a close on a row's commit comes before the next row's overflow
    if timeout is not None:
        at = start + timeout
        if at < end or (at == end and not on_commit):
            end, reason, on_commit = at, CloseReason.TIMEOUT, True
    if interrupt is not None:
        at = max(start, interrupt) + 1
        if at < end or (at == end and not on_commit):
            end, reason, on_commit = at, CloseReason.INTERRUPT, True
    return end, reason, on_commit


def segment_starts(trace: Trace, config: SystemConfig) -> list[int]:
    """The first row of each segment the detection system closes on
    ``trace`` under ``config``, without interrupts: :func:`segment_close`
    iterated from row 0.  Rollback recovery rolls back to one of them;
    the detection scheme's fault path stops a faulty run where the
    segment holding its fault closes."""
    capacity = config.detection.segment_entries(config.checker.num_cores)
    timeout = config.detection.instruction_timeout
    total = len(trace)
    starts = []
    start = 0
    while start < total:
        starts.append(start)
        start = segment_close(trace.mem_off, start, total, capacity,
                              timeout)[0]
    return starts


_KIND_NAMES = {LOAD: "load", STORE: "store", NONDET: "nondet"}


@dataclass
class Segment:
    """One closed portion of the load-store log: rows ``[start_seq,
    end_seq)`` of a trace.

    Its entries are ``[lo, hi)`` of the memory columns of the trace the
    detection hook was bound to when the segment closed: entry ``i`` is
    ``kinds[lo + i]``, ``addrs[lo + i]`` and ``values[lo + i]``.  A LOAD
    logs its address and the value the load forwarding unit captured at
    access (``mem_value``; ``mem_used``, the value that reached the
    register file, in the no-LFU ablation), a STORE its address and data,
    a NONDET its result at address 0.  ``commits`` holds the main core's
    commit cycle of each row, the reference point of the paper's
    detection-delay metric.
    """

    index: int
    slot: int
    start_seq: int
    end_seq: int
    start_checkpoint: RegisterCheckpoint
    end_checkpoint: RegisterCheckpoint
    close_reason: CloseReason
    close_tick: int
    lo: int
    hi: int
    kinds: Sequence[int]
    addrs: Sequence[int]
    values: Sequence[int]
    commits: list[int]

    def describe(self, i: int) -> str:
        """Entry ``i`` in words, for error reports."""
        j = self.lo + i
        return (f"{_KIND_NAMES[self.kinds[j]]} @{self.addrs[j]:#x} = "
                f"{self.values[j]:#x}")
