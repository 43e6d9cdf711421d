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
  path;
* ideal checkers, which check nothing, time no row of the faulty trace
  for that verdict;
* the detection scheme's fault path stops a detected fault's run up to
  a block past the close of the one segment it fails, and the verdict
  checks that segment alone; a masked fault's stopped run is completed
  and classified from the whole run.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest

from repro.common.config import default_config
from repro.core.ooo_core import OoOCore
from repro.core.timing import TIMING_SPLICE_ENV
from repro.detection import system
from repro.detection.checker import SegmentChecker
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.detection.lslog import segment_starts
from repro.detection.system import (
    DetectionVerdict,
    _first_failing_row,
    _TimingSpliceCursor,
    run_with_detection,
)
from repro.isa.blocks import MAX_BLOCK_LEN
from repro.isa.executor import execute_forked, execute_program
from repro.schemes import base as schemes_base
from repro.schemes import get_scheme
from repro.workloads.suite import BENCHMARK_ORDER, benchmark_trace

from tests.conftest import MASKED_FAULT, REFERENCE_PATH_ENV, mid_trace_faults

SUITE = tuple(BENCHMARK_ORDER)

#: the sites of :func:`tests.conftest.mid_trace_faults`
MID_TRACE_SITES = ("result", "store_value", "branch")

#: Every fast-path switch on: the fault path the campaigns run.
FAST_PATH_ENV = {key: "1" for key in REFERENCE_PATH_ENV}


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
    segment.  A fault that never fires gets the golden trace back."""
    config = default_config()
    golden = benchmark_trace(workload, "small")
    injector = FaultInjector([mid_trace_fault(workload, site)])
    faulty = execute_forked(golden, injector)
    if not injector.activations:
        # a fault that never fired hands back the golden trace itself,
        # which has no fork to resume timing from
        assert faulty is golden and faulty.fork_of is None
        return
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
def test_ideal_checkers_time_no_faulty_row(workload):
    """Ideal checkers check nothing and so record no event, although
    real checkers detect the same faults: the look-ahead from the fork
    names no row at once, and the run times no row of the faulty trace,
    for a verdict of not detected that equals the complete report's and
    the reference path's."""
    faults = [mid_trace_fault(workload, "result"), last_write_fault(workload)]
    faulty = forked(workload, faults)
    assert run_with_detection(faulty, default_config(),
                              verdict_only=True).detected
    config = default_config().with_ideal_checkers(True)
    verdict, looks, spans = traced_verdict(faulty, config)
    assert looks == [(faulty.fork_seq, len(faulty), None)]
    assert not spans
    assert not verdict.detected
    complete = run_with_detection(faulty, config).report
    assert verdict == DetectionVerdict.of(complete) == \
        reference_verdict(workload, faults, config)


def checked_looks(faulty, config):
    """The verdict of a verdict-only spliced run, and for each look-ahead
    it made: the segments it checked and the row it named."""
    looks = []
    look_ahead = system._first_failing_row
    check = SegmentChecker.check
    checks = []

    def look_spy(hook, row, bound):
        before = len(checks)
        named = look_ahead(hook, row, bound)
        looks.append((len(checks) - before, named))
        return named

    def check_spy(checker, segment):
        checks.append(segment.index)
        return check(checker, segment)

    with mock.patch.object(system, "_first_failing_row", look_spy), \
            mock.patch.object(SegmentChecker, "check", check_spy), \
            mock.patch.dict(os.environ, FAST_PATH_ENV):
        verdict = run_with_detection(faulty, config, verdict_only=True)
    return verdict, looks


def fault_path_runs(golden, fault, config):
    """The verdict of ``fault`` through the detection scheme's
    ``inject_batch`` with every fast path on, and each trace the fault
    path executed for it, with the ``stop_entries`` it was run with."""
    runs = []
    forked = schemes_base.execute_forked

    def spy(*args, **kwargs):
        trace = forked(*args, **kwargs)
        runs.append((kwargs.get("stop_entries"), trace))
        return trace

    with mock.patch.object(schemes_base, "execute_forked", spy), \
            mock.patch.dict(os.environ, FAST_PATH_ENV):
        verdict, = get_scheme("detection").inject_batch(golden, config,
                                                        (fault,))
    return verdict, runs


@pytest.mark.parametrize("workload", SUITE)
def test_detected_fault_stops_at_its_segment_close(workload):
    """At the detected mid-trace sites, the fault path stops the run
    where the one segment it fails has closed: it holds every row of
    that segment and at most a block more, a prefix of the whole run.
    The verdict's first look-ahead checks that segment alone and names
    its close; a look-ahead after the event checks none.  The verdict
    is the whole run's complete report's."""
    config = default_config()
    golden = benchmark_trace(workload, "small")
    detected = 0
    for fault in mid_trace_faults(workload):
        whole = execute_forked(golden, FaultInjector([fault]))
        complete = run_with_detection(whole, config).report
        if not complete.events:
            continue
        detected += 1
        failing = {event.error.segment_index for event in complete.events}
        assert len(failing) == 1
        starts = segment_starts(whole, config) + [len(whole)]
        close = starts[failing.pop() + 1]
        verdict, runs = fault_path_runs(golden, fault, config)
        (stop_entries, stopped), = runs
        assert stop_entries is not None
        assert close <= len(stopped) <= close + MAX_BLOCK_LEN
        assert list(stopped.pcs) == list(whole.pcs[:len(stopped)])
        assert verdict.outcome == "detected"
        early, looks = checked_looks(stopped, config)
        (first_checks, named), *after = looks
        assert first_checks == 1 and named is not None
        assert all(checks == 0 and row is None for checks, row in after)
        assert early == DetectionVerdict.of(complete)
    assert detected


def test_masked_fault_is_completed_from_the_whole_run():
    """The masked ``bitcount`` fault: the fault path stops its run where
    its segment closes, that segment passes, and the scheme completes
    the run from the same fork to read masked off the whole run, the
    reference path's verdict."""
    workload, fault = MASKED_FAULT
    golden = benchmark_trace(workload, "small")
    config = default_config()
    verdict, runs = fault_path_runs(golden, fault, config)
    (stop_entries, stopped), (none, whole) = runs
    assert stop_entries is not None and none is None
    assert not (stopped.halted or stopped.crashed)
    assert len(stopped) < len(whole) and whole.halted
    assert list(stopped.pcs) == list(whole.pcs[:len(stopped)])
    assert verdict.outcome == "masked"
    with mock.patch.dict(os.environ, REFERENCE_PATH_ENV):
        reference, = get_scheme("detection").inject_batch(golden, config,
                                                          (fault,))
    assert verdict == reference
