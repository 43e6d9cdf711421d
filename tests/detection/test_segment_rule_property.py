"""Property test: segments close by one rule.

:func:`repro.detection.lslog.segment_close` is the one closure rule of the
load-store log.  Over random programs and detection configs (the draws
of ``test_hook_skip_property``: random capacities, timeouts, interrupt
seqs, checker-core counts and load-forwarding settings):

* iterating the rule from row 0 gives the plan a per-row reference model
  of the closure semantics gives (fill, a macro-op overflow that closes
  before its row, timeout, interrupt, termination);
* the ``(start_seq, end_seq, close_reason)`` of every segment the
  detection hook dispatches equals that plan, whether the core skips the
  rows where nothing closes or calls the hook on every row;
* without interrupts, rollback recovery's segment starts are the
  dispatched segments' starts.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.ooo_core import OoOCore
from repro.detection.faults import FaultInjector
from repro.detection.lslog import CloseReason, segment_close
from repro.detection.system import ParallelErrorDetection
from repro.isa.executor import execute_program
from repro.recovery.rollback import _segment_starts

from tests.detection.test_hook_skip_property import detection_draw, make_config
from tests.isa.test_block_property import build_program, program_draw


def rule_plan(trace, capacity, timeout, interrupts):
    """``(start, end, reason)`` of every segment, iterating the rule from
    row 0; an INTERRUPT close consumes the pending interrupt."""
    pending = sorted(interrupts)
    plan, start, total = [], 0, len(trace)
    while start < total:
        end, reason, _ = segment_close(
            trace.mem_off, start, total, capacity, timeout,
            pending[0] if pending else None)
        if reason is CloseReason.INTERRUPT:
            pending.pop(0)
        plan.append((start, end, reason))
        start = end
    return plan


def reference_plan(trace, capacity, timeout, interrupts):
    """The same plan, row by row: a row whose entries do not all fit
    closes the segment before it; after a row commits, the segment closes
    when full, then on the timeout, then on a pending interrupt; the
    program's end closes what is left."""
    pending = sorted(interrupts)
    mem_off = trace.mem_off
    plan, start, held = [], 0, 0
    for row in range(len(trace)):
        count = mem_off[row + 1] - mem_off[row]
        if held + count > capacity:
            plan.append((start, row, CloseReason.FULL))
            start, held = row, 0
        held += count
        if held == capacity:
            reason = CloseReason.FULL
        elif timeout is not None and row + 1 - start == timeout:
            reason = CloseReason.TIMEOUT
        elif pending and pending[0] <= row:
            pending.pop(0)
            reason = CloseReason.INTERRUPT
        else:
            continue
        plan.append((start, row + 1, reason))
        start, held = row + 1, 0
    if start < len(trace):
        plan.append((start, len(trace), CloseReason.TERMINATION))
    return plan


class Spy(ParallelErrorDetection):
    """Records every segment it dispatches."""

    def _dispatch(self, segment, close_tick):
        self.closed.append(
            (segment.start_seq, segment.end_seq, segment.close_reason))
        super()._dispatch(segment, close_tick)


def dispatched(trace, config, interrupts, every_row=False):
    hook = Spy(config, trace.program, interrupt_seqs=interrupts)
    hook.closed = []
    if every_row:
        hook.skipped_commits = None   # the core then calls every row
    OoOCore(config).run(trace, hook=hook)
    return hook.closed


@settings(max_examples=100, deadline=None)
@given(program_draw, detection_draw)
def test_hook_closes_segments_by_the_rule(draw, detection):
    # an attached (empty) injector turns a trap into a crashed trace
    trace = execute_program(build_program(draw), FaultInjector([]),
                            max_instructions=20000)
    config = make_config(detection)
    capacity = config.detection.segment_entries(config.checker.num_cores)
    timeout = config.detection.instruction_timeout
    interrupts = detection["interrupts"]
    plan = rule_plan(trace, capacity, timeout, interrupts)
    assert plan == reference_plan(trace, capacity, timeout, interrupts)
    assert dispatched(trace, config, interrupts) == plan
    assert dispatched(trace, config, interrupts, every_row=True) == plan

    # recovery runs take no interrupts
    closed = dispatched(trace, config, [])
    assert closed == rule_plan(trace, capacity, timeout, [])
    assert _segment_starts(trace, config) == [start for start, _, _ in closed]
