"""The verdict-only timing rule on the nine suite workloads.

A verdict-only spliced detection run times from its fork seq through
the close of the log segment that holds the trace's ``last_fault_seq``
and stops (:func:`repro.detection.system._spliced_detection_run`): no
later segment can fail, so every event is recorded by that close.  The
properties of ``test_certified_verdict`` draw random programs; these
pins hold the rule against complete runs of faulty traces of every
suite workload:

* at the three mid-trace sites and on a segment's first row, the run
  times the faulty trace in one ``run_rows`` call from the fork seq
  through the row ``c`` whose commit closes the fault's segment, as
  :func:`repro.detection.lslog.segment_close` places it, and checks
  that segment alone; timing the rows before ``c`` records no event,
  and timing ``c`` records the complete run's events;
* a fault in the last row that writes a register fails only the
  termination segment, so the run times every row and finishes;
* a pair of faults is timed back to back through the close of the later
  fault's segment;
* ideal checkers, which check nothing, time no row of the faulty trace;
* the detection scheme's fault path stops a detected fault's run up to
  a block past the close of the one segment it fails, and the verdict
  checks that segment alone; a masked fault's stopped run is completed
  and classified from the whole run.

Every verdict equals the complete report's and the reference path's.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest

from repro.common.config import default_config
from repro.core.ooo_core import OoOCore
from repro.detection.checker import SegmentChecker
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.detection.lslog import segment_starts
from repro.detection.system import (
    DetectionVerdict,
    _TimingSpliceCursor,
    run_with_detection,
)
from repro.isa.blocks import MAX_BLOCK_LEN
from repro.isa.executor import execute_forked, execute_program
from repro.schemes import base as schemes_base
from repro.schemes import get_scheme
from repro.workloads.suite import BENCHMARK_ORDER, benchmark_trace

from tests.conftest import MASKED_FAULT, REFERENCE_PATH_ENV, mid_trace_faults
from tests.detection.test_certified_verdict import (
    covered,
    fault_close_row,
    fault_span,
)

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


def segment_start_fault(workload: str) -> TransientFault:
    """A RESULT fault on the first row, past the middle of the golden
    trace, of a log segment whose first row writes a register: the
    fault's row is where its segment opens."""
    golden = benchmark_trace(workload, "small")
    start = next(row for row in segment_starts(golden, default_config())
                 if row >= len(golden) // 2 and golden.dsts[row])
    return TransientFault(FaultSite.RESULT, seq=start, bit=4)


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


def events_through(faulty, config, row: int) -> list:
    """The events a run resumed at the fork seq of ``faulty``, as a
    spliced run starts, records by timing its rows through ``row``
    (none when ``row`` is below the fork seq); the whole run's,
    finished, when ``row`` is the trace length."""
    core, state, hook = _TimingSpliceCursor(faulty.fork_of, config).bundle(
        faulty.fork_seq)
    hook.begin(faulty)
    core.run_rows(faulty, hook, state, min(row + 1, len(faulty)))
    if row == len(faulty):
        core.finish_run(faulty, hook, state)
    return hook.report.events


def reference_verdict(workload: str, faults, config):
    """The verdict on the reference path: every fast path off, the
    faulty program executed and timed in full."""
    program = benchmark_trace(workload, "small").program
    with mock.patch.dict(os.environ, REFERENCE_PATH_ENV):
        full = execute_program(program,
                               fault_injector=FaultInjector(list(faults)))
        return run_with_detection(full, config, verdict_only=True)


def traced_verdict(faulty, config):
    """The verdict of a verdict-only run with every fast path on; the
    ``(first row, stop)`` of each ``OoOCore.run_rows`` call it made over
    ``faulty``; how often it finished ``faulty``'s run; and the
    ``(start_seq, end_seq)`` of each segment it checked that closed
    while its hook was bound to ``faulty``, whose log columns such a
    segment views."""
    spans, finished, checked = [], [], []
    run_rows, finish_run = OoOCore.run_rows, OoOCore.finish_run
    check = SegmentChecker.check

    def rows_spy(core, trace, hook, state, stop):
        if trace is faulty:
            spans.append((state.next_row, stop))
        return run_rows(core, trace, hook, state, stop)

    def finish_spy(core, trace, hook, state):
        if trace is faulty:
            finished.append(trace)
        return finish_run(core, trace, hook, state)

    def check_spy(checker, segment):
        if segment.kinds is faulty.mem_kind:
            checked.append((segment.start_seq, segment.end_seq))
        return check(checker, segment)

    with mock.patch.object(OoOCore, "run_rows", rows_spy), \
            mock.patch.object(OoOCore, "finish_run", finish_spy), \
            mock.patch.object(SegmentChecker, "check", check_spy), \
            mock.patch.dict(os.environ, FAST_PATH_ENV):
        verdict = run_with_detection(faulty, config, verdict_only=True)
    return verdict, spans, len(finished), checked


@pytest.mark.parametrize("site", MID_TRACE_SITES + ("segment-start",))
@pytest.mark.parametrize("workload", SUITE)
def test_mid_trace_fault_is_timed_through_its_segment_close(workload, site):
    """One span from the fork seq through the row ``c`` whose commit
    closes the fault's segment, checking that segment alone.  The
    segment-start fault's segment is the termination segment on
    ``bitcount``, ``blackscholes``, ``bodytrack`` and ``randacc`` (where
    the fault ends the run early): its span reaches the trace end and
    the run is finished.  Timing the rows before ``c`` records no
    event, and timing ``c`` records the complete run's events.  A
    fault that never fires gets the golden trace back."""
    config = default_config()
    golden = benchmark_trace(workload, "small")
    fault = (segment_start_fault(workload) if site == "segment-start"
             else mid_trace_fault(workload, site))
    injector = FaultInjector([fault])
    faulty = execute_forked(golden, injector)
    if not injector.activations:
        # a fault that never fired hands back the golden trace itself,
        # which has no fork to resume timing from
        assert faulty is golden and faulty.fork_of is None
        return
    verdict, spans, finished, checked = traced_verdict(faulty, config)
    close = fault_close_row(faulty, config)
    assert spans == [(faulty.fork_seq, min(close + 1, len(faulty)))]
    assert finished == (close == len(faulty))
    (start, end), = checked
    assert start <= faulty.fork_seq < end
    complete = run_with_detection(faulty, config).report
    assert not events_through(faulty, config, close - 1)
    assert events_through(faulty, config, close) == complete.events
    assert verdict == DetectionVerdict.of(complete) == \
        reference_verdict(workload, [fault], config)


@pytest.mark.parametrize("workload", SUITE)
def test_only_the_termination_segment_fails(workload):
    """The last-write fault fails only the termination segment, which
    holds its row: the run times every row from the fork seq and
    finishes.  Timing every row records no event; finishing the run
    records the complete run's."""
    config = default_config()
    fault = last_write_fault(workload)
    faulty = forked(workload, [fault])
    total = len(faulty)
    assert fault_close_row(faulty, config) == total
    verdict, spans, finished, _ = traced_verdict(faulty, config)
    assert spans == [(faulty.fork_seq, total)] and finished == 1
    assert not events_through(faulty, config, total - 1)
    complete = run_with_detection(faulty, config).report
    assert complete.events and \
        events_through(faulty, config, total) == complete.events
    assert complete.closes_by_reason["termination"] == 1
    assert {event.error.segment_index for event in complete.events} == \
        {complete.segments_checked - 1}
    assert verdict == DetectionVerdict.of(complete) == \
        reference_verdict(workload, [fault], config)


@pytest.mark.parametrize("second", SECOND_FAULTS)
@pytest.mark.parametrize("workload", SUITE)
def test_pair_is_timed_through_its_later_segment_close(workload, second):
    """The mid-trace RESULT fault and a later one.  Where both fire, two
    segments fail; on some workloads the later segment detects first,
    and on some it closes after the earlier one's event.  The run times
    back to back from the fork seq through the close of the later
    fault's segment, finishing the run when that is the termination
    segment, and records the complete run's events by then."""
    config = default_config()
    faults = [mid_trace_fault(workload, "result"),
              SECOND_FAULTS[second](workload)]
    faulty = forked(workload, faults)
    verdict, spans, finished, _ = traced_verdict(faulty, config)
    close = fault_close_row(faulty, config)
    assert covered(spans) == fault_span(faulty, config)
    assert finished == (close == len(faulty))
    complete = run_with_detection(faulty, config).report
    assert events_through(faulty, config, close) == complete.events
    assert verdict == DetectionVerdict.of(complete) == \
        reference_verdict(workload, faults, config)


@pytest.mark.parametrize("workload", SUITE)
def test_ideal_checkers_time_no_faulty_row(workload):
    """Ideal checkers check nothing and so record no event, although
    real checkers detect the same faults: the run times no row of the
    faulty trace, for a verdict of not detected that equals the
    complete report's and the reference path's."""
    faults = [mid_trace_fault(workload, "result"), last_write_fault(workload)]
    faulty = forked(workload, faults)
    assert run_with_detection(faulty, default_config(),
                              verdict_only=True).detected
    config = default_config().with_ideal_checkers(True)
    verdict, spans, finished, checked = traced_verdict(faulty, config)
    assert not (spans or finished or checked)
    assert not verdict.detected
    complete = run_with_detection(faulty, config).report
    assert verdict == DetectionVerdict.of(complete) == \
        reference_verdict(workload, faults, config)


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
    The verdict times the stopped run through that segment's close in
    one span and checks that segment alone, once.  The verdict is the
    whole run's complete report's."""
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
        index = failing.pop()
        starts = segment_starts(whole, config) + [len(whole)]
        close = starts[index + 1]
        verdict, runs = fault_path_runs(golden, fault, config)
        (stop_entries, stopped), = runs
        assert stop_entries is not None
        assert close <= len(stopped) <= close + MAX_BLOCK_LEN
        assert list(stopped.pcs) == list(whole.pcs[:len(stopped)])
        assert verdict.outcome == "detected"
        early, spans, finished, checked = traced_verdict(stopped, config)
        assert spans == [(stopped.fork_seq,
                          fault_close_row(stopped, config) + 1)]
        assert not finished
        assert checked == [(starts[index], close)]
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
