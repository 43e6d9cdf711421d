"""A certified early verdict equals the fully timed one.

A verdict-only spliced detection run may stop timing right after its
first detection event, once a timing-free look-ahead shows that every
segment that could still close before that event's tick passes its
check.  Over random programs (the generator of ``test_block_property``,
with longer loops so runs span several timing chunks), random
detection configs (the hook-skip property's draw without interrupts,
at the checker frequencies of the Figure 9 sweep, and the stress
config) and random faults (see :func:`draw_faults`), the verdict must
equal the one read off the complete report and the one of the
reference path (timing splice off), and a look-ahead that certifies a
run must have left no failing segment unchecked that closes before the
first event's tick.  The timing chunk is drawn too, so the look-ahead
starts at many different rows.  A verdict-only run first looks ahead
from its fork seq, before it times a row: that probe must pass only
when the complete report records no event.  The look-ahead must also
leave the hook it copies alone.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import default_config
from repro.core.timing import TIMING_SPLICE_ENV
from repro.detection import system
from repro.detection.faults import (
    EXECUTION_SITES,
    FaultInjector,
    FaultSite,
    HardFault,
    TransientFault,
)
from repro.detection.system import (
    DetectionVerdict,
    _TimingSpliceCursor,
    run_with_detection,
)
from repro.harness.figures import FREQUENCIES_MHZ
from repro.isa.executor import execute_forked, execute_program
from repro.isa.instructions import MASK64
from repro.workloads.suite import benchmark_trace

from tests.core.timing_pins import report_fields, stress_config
from tests.detection.test_hook_skip_property import detection_draw, make_config
from tests.isa.test_block_property import (
    FAULTY_CAP,
    build_program,
    program_draw,
)
from tests.schemes.test_timing_splice import REORDERED_FAULTS

#: random programs without the trap edge (a trapping golden run has
#: nothing to fork from), whose counted loop runs long enough to span
#: several timing chunks and log segments
long_program_draw = st.tuples(
    program_draw, st.integers(min_value=1, max_value=150),
).map(lambda pair: {**pair[0], "loop_iters": pair[1], "misalign": None})

#: the hook-skip property's detection configs (without interrupts) at a
#: checker frequency of the Figure 9 sweep, and the stress config
config_draw = st.one_of(
    st.tuples(detection_draw, st.sampled_from(FREQUENCIES_MHZ)).map(
        lambda pair: make_config(pair[0]).with_checker_freq(float(pair[1]))),
    st.builds(stress_config))


#: sites whose fault a check catches at the faulty instruction's log entry
ENTRY_SITES = (FaultSite.LOAD_ADDR, FaultSite.STORE_ADDR,
               FaultSite.STORE_VALUE)


def draw_transient(data, seq, sites=EXECUTION_SITES):
    return TransientFault(
        data.draw(st.sampled_from(sorted(sites, key=lambda s: s.value))),
        seq=seq,
        bit=data.draw(st.integers(min_value=0, max_value=63)),
        memop_index=data.draw(st.integers(min_value=0, max_value=1)))


def draw_faults(data, golden) -> list:
    """One fault at a uniform seq: a transient at an execution site, or a
    hard fault on an opcode whose results the golden run writes back (it
    fails segment after segment).  Or two transients a few rows apart,
    anywhere or near the end of the trace, which can fail two
    neighbouring segments or a segment and the termination segment; in
    half of those pairs the first corrupts a result, which its segment's
    check catches only at the end checkpoint, and the second strikes a
    memory operation, which the next check catches at its log entry, so
    the later segment tends to detect first."""
    last = len(golden) - 1
    kind = data.draw(st.sampled_from(["transient", "hard", "pair", "tail"]))
    low = max(0, last - 80) if kind == "tail" else 0
    seq = data.draw(st.integers(min_value=low, max_value=last))
    if kind == "hard":
        instructions = golden.program.instructions
        opcodes = sorted({instructions[pc].op
                          for pc, dsts in zip(golden.pcs, golden.dsts)
                          if dsts}, key=lambda op: op.value)
        return [HardFault(data.draw(st.sampled_from(opcodes)),
                          mask=data.draw(st.integers(1, MASK64)),
                          start_seq=seq)]
    if kind == "transient":
        return [draw_transient(data, seq)]
    reorder = data.draw(st.booleans())
    later = min(last, seq + data.draw(st.integers(min_value=1, max_value=40)))
    return [draw_transient(data, seq,
                           (FaultSite.RESULT,) if reorder else EXECUTION_SITES),
            draw_transient(data, later,
                           ENTRY_SITES if reorder else EXECUTION_SITES)]


def verdict(faulty, config, splice: str, verdict_only: bool = True):
    previous = os.environ.get(TIMING_SPLICE_ENV)
    os.environ[TIMING_SPLICE_ENV] = splice
    try:
        return run_with_detection(faulty, config, verdict_only=verdict_only)
    finally:
        if previous is None:
            del os.environ[TIMING_SPLICE_ENV]
        else:
            os.environ[TIMING_SPLICE_ENV] = previous


#: rows per timing chunk: small chunks start the look-ahead at many rows
chunk_draw = st.sampled_from([1, 3, 8, system.VERDICT_CHUNK_ROWS])


def faulty_trace(draw, data):
    golden = execute_program(build_program(draw), max_instructions=20000)
    return execute_forked(golden, FaultInjector(draw_faults(data, golden)),
                          max_instructions=FAULTY_CAP)


@settings(max_examples=120, deadline=None)
@given(long_program_draw, config_draw, chunk_draw, st.data())
def test_certified_verdict_equals_full_timing(draw, config, chunk, data):
    faulty = faulty_trace(draw, data)
    with mock.patch.object(system, "VERDICT_CHUNK_ROWS", chunk):
        early = verdict(faulty, config, "1")
    complete = verdict(faulty, config, "1", verdict_only=False)
    reference = verdict(faulty, config, "0")
    assert early == DetectionVerdict.of(complete.report) == reference


@settings(max_examples=120, deadline=None)
@given(long_program_draw, config_draw, chunk_draw, st.data())
def test_certificate_covers_every_segment_closing_before_first_event(
        draw, config, chunk, data):
    """Sharper than the verdict alone: when the look-ahead certifies a
    run, no segment the fully timed run closes before the first event's
    tick fails its check, except those already checked.  A second failing
    segment need not detect earlier for a too-short look-ahead to show.
    Only look-aheads made after an event are recorded: the one from the
    fork, before any row is timed, is the no-event property below."""
    faulty = faulty_trace(draw, data)
    looks = []
    look_ahead = system._later_segments_pass

    def spy(hook, row, bound):
        report = hook.report
        if not report.events:
            return look_ahead(hook, row, bound)
        looks.append((len(report.events), report.first_event.detect_tick))
        certified = look_ahead(hook, row, bound)
        looks[-1] += (certified,)
        return certified

    with mock.patch.object(system, "VERDICT_CHUNK_ROWS", chunk), \
            mock.patch.object(system, "_later_segments_pass", spy):
        early = verdict(faulty, config, "1")
    complete = verdict(faulty, config, "1", verdict_only=False).report
    assert len(looks) <= 1
    for recorded, first_tick, certified in looks:
        if certified:
            assert all(event.segment_close_tick >= first_tick
                       for event in complete.events[recorded:])
            assert early == DetectionVerdict.of(complete)


@settings(max_examples=120, deadline=None)
@given(long_program_draw, config_draw, st.data())
def test_look_ahead_from_the_fork_passes_only_without_events(
        draw, config, data):
    """A verdict-only run first looks ahead from its fork seq to the end
    of the trace, before it times a row, and returns with no event when
    every check passes.  That probe must pass only if the complete report
    records no event; with real checkers, a failing probe must mean an
    event (ideal checkers check nothing, so they record none)."""
    config = config.with_ideal_checkers(data.draw(st.booleans()))
    faulty = faulty_trace(draw, data)
    _, state, hook = _TimingSpliceCursor(faulty.fork_of, config).bundle(
        faulty.fork_seq)
    hook.begin(faulty)
    passes = system._later_segments_pass(hook, state.next_row, len(faulty))
    complete = verdict(faulty, config, "1", verdict_only=False).report
    if passes:
        assert not complete.events
    elif not config.detection.ideal_checkers:
        assert complete.events
    assert verdict(faulty, config, "1") == verdict(faulty, config, "0")


def hook_state(hook) -> tuple:
    """What the look-ahead must leave alone on the hook it copies."""
    return (report_fields(hook.report), hook._index, hook._start,
            hook._start_checkpoint, list(hook._commits), hook._reason,
            hook._close_row, hook._on_commit, hook._next_interrupt,
            list(hook.arch.xregs), [repr(f) for f in hook.arch.fregs],
            hook.next_row, hook._synced, list(hook.slot_free_tick))


@pytest.mark.parametrize("reordered, certified", [(False, True),
                                                   (True, False)])
def test_look_ahead_leaves_the_hook_alone(reordered, certified):
    """Run to the first chunk with an event, as a verdict-only run does,
    then look ahead twice: the same answer both times, and the hook as
    the look-ahead's catch-up of its skipped rows left it.  One fault is
    certified; the reordered pair's later segment fails the look-ahead."""
    golden = benchmark_trace("stream", "small")
    faults = (list(REORDERED_FAULTS) if reordered else
              [TransientFault(FaultSite.RESULT, seq=len(golden) // 2, bit=4)])
    faulty = execute_forked(golden, FaultInjector(faults))
    config = default_config()
    core, state, hook = _TimingSpliceCursor(golden, config).bundle(
        faulty.fork_seq)
    hook.begin(faulty)
    total = len(faulty)
    while not hook.report.events:
        core.run_rows(faulty, hook, state,
                      min(state.next_row + system.VERDICT_CHUNK_ROWS, total))
    now = state.last_commit_cycle * hook.main_period
    ticks = hook.report.first_event.detect_tick - now
    assert ticks > 0
    row = state.next_row
    bound = min(total, row + 1 + config.main_core.commit_width
                * -(-ticks // hook.main_period))
    hook._catch_up()
    before = hook_state(hook)
    answers = [system._later_segments_pass(hook, row, bound)
               for _ in range(2)]
    assert answers == [certified, certified]
    assert hook_state(hook) == before
