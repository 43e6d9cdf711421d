"""The verdict loop's look-ahead and stops on the nine suite workloads.

A verdict-only spliced detection run times from one failing log segment
to the next (:func:`repro.detection.system._spliced_detection_run`).
Its look-ahead, :func:`~repro.detection.system._first_failing_row`,
gives one of three answers: the row on whose commit the first failing
segment closes, ``len(trace)`` when only the termination segment fails,
and None when every segment passes.  The properties of
``test_certified_verdict`` draw random programs; these pins hold each
answer, and the loop built on it, against complete runs of faulty
traces of every suite workload:

* from the fork seq, the look-ahead names no row exactly when the
  complete run records no event, and otherwise the row whose commit
  records the complete run's first events;
* a fault in the last row that writes a register fails only the
  termination segment, which the look-ahead names by the trace length,
  and checks only when it looks as far as the trace end;
* the run's timed spans follow the rows the look-ahead names, back to
  back from the fork seq, and the run stops only by the loop's three
  rules, with the verdict of the complete report and of the reference
  path, under real and ideal checkers.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest

from repro.common.config import default_config
from repro.core.ooo_core import OoOCore
from repro.core.timing import TIMING_SPLICE_ENV
from repro.detection import system
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.detection.system import (
    DetectionVerdict,
    _first_failing_row,
    _TimingSpliceCursor,
    run_with_detection,
)
from repro.isa.executor import execute_forked, execute_program
from repro.workloads.suite import BENCHMARK_ORDER, benchmark_trace

from tests.conftest import REFERENCE_PATH_ENV, mid_trace_faults

SUITE = tuple(BENCHMARK_ORDER)

#: the sites of :func:`tests.conftest.mid_trace_faults`
MID_TRACE_SITES = ("result", "store_value", "branch")


def mid_trace_fault(workload: str, site: str) -> TransientFault:
    return next(fault for fault in mid_trace_faults(workload)
                if fault.site.value == site)


def last_write_fault(workload: str) -> TransientFault:
    """A RESULT fault on the last row of the golden trace that writes a
    register: on every suite workload, the loop counter's update just
    before the final branch.  Nothing checks its value before the end
    checkpoint."""
    golden = benchmark_trace(workload, "small")
    last = max(row for row in range(len(golden)) if golden.dsts[row])
    return TransientFault(FaultSite.RESULT, seq=last, bit=3)


def three_quarters_fault(workload: str) -> TransientFault:
    """A RESULT fault three quarters into the golden trace."""
    n = len(benchmark_trace(workload, "small"))
    return TransientFault(FaultSite.RESULT, seq=(3 * n) // 4, bit=4)


#: the second fault of a pair, after the mid-trace RESULT fault
SECOND_FAULTS = {"last-write": last_write_fault,
                 "three-quarters": three_quarters_fault}


def forked(workload: str, faults):
    return execute_forked(benchmark_trace(workload, "small"),
                          FaultInjector(list(faults)))


def resumed(faulty, config):
    """A (core, state, hook) timed to exactly the fork seq of
    ``faulty`` and bound to it, as a spliced run starts."""
    core, state, hook = _TimingSpliceCursor(faulty.fork_of, config).bundle(
        faulty.fork_seq)
    hook.begin(faulty)
    return core, state, hook


def reference_verdict(workload: str, faults, config):
    """The verdict on the reference path: every fast path off, the
    faulty program executed and timed in full."""
    program = benchmark_trace(workload, "small").program
    with mock.patch.dict(os.environ, REFERENCE_PATH_ENV):
        full = execute_program(program,
                               fault_injector=FaultInjector(list(faults)))
        return run_with_detection(full, config, verdict_only=True)


def traced_verdict(faulty, config):
    """The verdict of a verdict-only spliced run; the look-aheads it
    made, as ``(row, bound, named row)``; and its timed spans, as
    ``(first row, stop, last commit tick, first detect tick or None)``
    read when the span returns."""
    looks, spans = [], []
    look_ahead = system._first_failing_row
    run_rows = OoOCore.run_rows

    def look_spy(hook, row, bound):
        looks.append((row, bound, look_ahead(hook, row, bound)))
        return looks[-1][2]

    def rows_spy(core, trace, hook, state, stop):
        start = state.next_row
        run_rows(core, trace, hook, state, stop)
        if trace is faulty:
            first = hook.report.first_event
            spans.append((start, stop,
                          state.last_commit_cycle * hook.main_period,
                          first and first.detect_tick))

    with mock.patch.object(system, "_first_failing_row", look_spy), \
            mock.patch.object(OoOCore, "run_rows", rows_spy), \
            mock.patch.dict(os.environ, {TIMING_SPLICE_ENV: "1"}):
        verdict = run_with_detection(faulty, config, verdict_only=True)
    return verdict, looks, spans


def stop_of(looks, spans, total: int) -> str:
    """Check that the spans follow the look-aheads, starting at the
    first look-ahead's row and each timing through the row the
    look-ahead before it named, and that only the last span meets a
    stop; return the stop the run took: ``"look-ahead"`` (a look-ahead
    named no row), ``"termination"`` (the termination row was timed)
    or ``"tick"`` (the commit tick reached the earliest detect tick)."""
    def meets_stop(named, span) -> bool:
        _, _, now, first_tick = span
        return named == total or (first_tick is not None
                                  and now >= first_tick)

    row = looks[0][0]
    for (start, _, named), span in zip(looks, spans):
        assert start == row and named is not None
        row = min(named + 1, total)
        assert span[:2] == (start, row)
    for (_, _, named), span in zip(looks, spans[:-1]):
        assert not meets_stop(named, span)
    if len(looks) == len(spans) + 1:
        assert looks[-1][2] is None
        assert not spans or not meets_stop(looks[-2][2], spans[-1])
        return "look-ahead"
    assert len(looks) == len(spans)
    named = looks[-1][2]
    assert meets_stop(named, spans[-1])
    return "termination" if named == total else "tick"


@pytest.mark.parametrize("site", MID_TRACE_SITES)
@pytest.mark.parametrize("workload", SUITE)
def test_fork_look_ahead_names_the_close_of_the_first_events(workload,
                                                            site):
    """Looking from the fork seq to the trace end, the look-ahead names
    no row exactly when the complete run records no event.  Otherwise
    timing the rows before the named row records no event, and timing
    that row records the complete run's first events, all from one
    segment."""
    config = default_config()
    faulty = forked(workload, [mid_trace_fault(workload, site)])
    core, state, hook = resumed(faulty, config)
    total = len(faulty)
    named = _first_failing_row(hook, state.next_row, total)
    complete = run_with_detection(faulty, config).report
    assert (named is None) == (not complete.events)
    if named is None:
        return
    assert faulty.fork_seq <= named < total
    core.run_rows(faulty, hook, state, named)
    assert not hook.report.events
    core.run_rows(faulty, hook, state, named + 1)
    events = hook.report.events
    assert events and events == complete.events[:len(events)]
    assert {event.error.segment_index for event in events} == \
        {complete.events[0].error.segment_index}


@pytest.mark.parametrize("workload", SUITE)
def test_only_the_termination_segment_fails(workload):
    """The last-write fault fails only the termination segment.  The
    look-ahead names the trace length when it looks as far as the trace
    end, and no row when it stops one row short.  Timing every row
    records no event; finishing the run records the complete run's."""
    config = default_config()
    faulty = forked(workload, [last_write_fault(workload)])
    core, state, hook = resumed(faulty, config)
    total = len(faulty)
    assert _first_failing_row(hook, state.next_row, total) == total
    assert _first_failing_row(hook, state.next_row, total - 1) is None
    core.run_rows(faulty, hook, state, total)
    assert not hook.report.events
    core.finish_run(faulty, hook, state)
    complete = run_with_detection(faulty, config).report
    assert complete.events and hook.report.events == complete.events
    assert complete.closes_by_reason["termination"] == 1
    assert {event.error.segment_index for event in complete.events} == \
        {complete.segments_checked - 1}


@pytest.mark.parametrize("second", SECOND_FAULTS)
@pytest.mark.parametrize("workload", SUITE)
def test_verdict_loop_stops_only_by_its_rules(workload, second):
    """The mid-trace RESULT fault and a later one.  Where both fire, two
    segments fail; on some workloads the later segment detects first,
    and on some the later segment closes after the earlier one's event.
    The run looks ahead first from its fork seq to the trace end; its
    spans follow the named rows and it stops by one of the loop's rules,
    with the verdict of the complete report and of the reference path."""
    config = default_config()
    faults = [mid_trace_fault(workload, "result"),
              SECOND_FAULTS[second](workload)]
    faulty = forked(workload, faults)
    verdict, looks, spans = traced_verdict(faulty, config)
    assert looks[0][:2] == (faulty.fork_seq, len(faulty))
    stop_of(looks, spans, len(faulty))
    complete = run_with_detection(faulty, config).report
    assert verdict == DetectionVerdict.of(complete) == \
        reference_verdict(workload, faults, config)


def test_commit_tick_past_the_first_detect_tick_stops_the_run():
    """On ``stream``, the three-quarters fault fails a segment that the
    window after the first event reaches but that closes after that
    event's tick: timing through its close takes the commit tick past
    the earliest detect tick, and the run stops there, with no further
    look-ahead and the earlier segment's verdict."""
    config = default_config()
    faulty = forked("stream", [mid_trace_fault("stream", "result"),
                               three_quarters_fault("stream")])
    verdict, looks, spans = traced_verdict(faulty, config)
    assert stop_of(looks, spans, len(faulty)) == "tick"
    assert len(spans) == 2
    complete = run_with_detection(faulty, config).report
    first, second = complete.events
    assert first is complete.first_event
    assert second.segment_close_tick > first.detect_tick
    assert verdict == DetectionVerdict.of(complete)


@pytest.mark.parametrize("workload", SUITE)
def test_ideal_checkers_time_every_failing_close(workload):
    """Ideal checkers check nothing and so record no event, but the
    look-ahead still checks: the run never narrows its window, and times
    through the close of every segment that a run with real checkers
    fails, one span each, until a look-ahead names no row or the
    termination row is timed."""
    faults = [mid_trace_fault(workload, "result"), last_write_fault(workload)]
    faulty = forked(workload, faults)
    failing = {event.error.segment_index for event in
               run_with_detection(faulty, default_config()).report.events}
    config = default_config().with_ideal_checkers(True)
    verdict, looks, spans = traced_verdict(faulty, config)
    total = len(faulty)
    assert all(bound == total for _, bound, _ in looks)
    assert stop_of(looks, spans, total) in ("look-ahead", "termination")
    assert len(spans) == len(failing)
    assert not verdict.detected
    complete = run_with_detection(faulty, config).report
    assert verdict == DetectionVerdict.of(complete) == \
        reference_verdict(workload, faults, config)
