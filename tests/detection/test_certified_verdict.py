"""A certified early verdict equals the fully timed one.

A verdict-only spliced detection run times from one failing segment to
the next: a timing-free look-ahead names the row on whose commit the
next failing segment closes, and the run times through exactly that
row.  Once an event is recorded, the look-ahead covers only the rows
that can still commit before that event's tick, and the run stops when
it names no row.  Over random programs (the generator of
``test_block_property``, with longer loops so runs span several log
segments), random detection configs (the hook-skip property's draw
without interrupts, at the checker frequencies of the Figure 9 sweep,
and the stress config), real or ideal checkers, and random faults (see
:func:`draw_faults`), the verdict must equal the one read off the
complete report and the one of the reference path (timing splice off),
and a look-ahead after an event that names no row must have left no
failing segment unchecked that closes before the first event's tick.
The first look-ahead, from the fork seq before any row is timed, must
name no row only when the complete report records no event.  The
look-ahead must also leave the hook it copies alone.
"""

from __future__ import annotations

import os
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import default_config
from repro.common.stats import Samples
from repro.core.inorder_core import InOrderCoreModel
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
from repro.isa.instructions import MASK64, Opcode
from repro.isa.program import ProgramBuilder
from repro.memory.hierarchy import CheckerICaches
from repro.workloads.suite import benchmark_trace

from tests.conftest import tripwire
from tests.core.timing_pins import report_fields, stress_config
from tests.detection.test_hook_skip_property import detection_draw, make_config
from tests.isa.test_block_property import (
    FAULTY_CAP,
    build_program,
    long_program_draw,
)
from tests.schemes.test_timing_splice import REORDERED_FAULTS

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


def verdict_with_looks(faulty, config):
    """The verdict of a verdict-only run, and for each look-ahead it
    made: the number of events recorded before it, the first event's
    tick (None before an event) and the row it named."""
    looks = []
    look_ahead = system._first_failing_row

    def spy(hook, row, bound):
        report = hook.report
        first = report.first_event
        looks.append((len(report.events), first and first.detect_tick,
                      look_ahead(hook, row, bound)))
        return looks[-1][2]

    with mock.patch.object(system, "_first_failing_row", spy):
        return verdict(faulty, config, "1"), looks


def faulty_trace(draw, data):
    golden = execute_program(build_program(draw), max_instructions=20000)
    return execute_forked(golden, FaultInjector(draw_faults(data, golden)),
                          max_instructions=FAULTY_CAP)


@settings(max_examples=120, deadline=None)
@given(long_program_draw, config_draw, st.data())
def test_certified_verdict_equals_full_timing(draw, config, data):
    """With ideal checkers nothing is checked, so no event is recorded:
    the run steps from one failing close to the next to the last one."""
    config = config.with_ideal_checkers(data.draw(st.booleans()))
    faulty = faulty_trace(draw, data)
    early = verdict(faulty, config, "1")
    complete = verdict(faulty, config, "1", verdict_only=False)
    reference = verdict(faulty, config, "0")
    assert early == DetectionVerdict.of(complete.report) == reference


@settings(max_examples=120, deadline=None)
@given(long_program_draw, config_draw, st.data())
def test_certificate_covers_every_segment_closing_before_first_event(
        draw, config, data):
    """Sharper than the verdict alone: when a look-ahead made after an
    event names no row, no segment the fully timed run closes before the
    first event's tick fails its check, except those already checked.  A
    second failing segment need not detect earlier for a too-short
    look-ahead to show.  A run looks ahead once per failing segment in
    its window; the look-aheads before its first event are the no-event
    property below."""
    faulty = faulty_trace(draw, data)
    early, looks = verdict_with_looks(faulty, config)
    complete = verdict(faulty, config, "1", verdict_only=False).report
    for recorded, first_tick, named in looks:
        if recorded and named is None:
            assert all(event.segment_close_tick >= first_tick
                       for event in complete.events[recorded:])
            assert early == DetectionVerdict.of(complete)


def independent_alu_loop(iterations: int = 80):
    """A loop of one store and eight independent ALU ops, which the core
    commits at about two rows per cycle between checkpoint pauses."""
    b = ProgramBuilder("independent-alu-loop")
    data = b.alloc_words(1, [0])
    b.emit(Opcode.MOVI, rd=9, imm=data)
    b.emit(Opcode.MOVI, rd=11, imm=iterations)
    b.label("loop")
    b.emit(Opcode.ST, rs2=1, rs1=9, imm=0)
    for reg in range(1, 9):
        b.emit(Opcode.ADDI, rd=reg, rs1=reg, imm=1)
    b.emit(Opcode.ADDI, rd=11, rs1=11, imm=-1)
    b.emit(Opcode.BNE, rs1=11, rs2=0, target="loop")
    b.emit(Opcode.HALT)
    return b.build()


def test_window_counts_commit_width_rows_per_cycle():
    """A corrupted store, the first entry of its log segment, is detected
    a few dozen cycles after that segment closes.  The loop commits
    about two rows per cycle, so the next segment, closed by a 70-row
    timeout, closes before that tick on a row more rows ahead than
    cycles are left: the look-ahead after the event reaches it only
    because its window counts ``commit_width`` rows per cycle.  A second
    fault fails that segment too, so the look-ahead must name its
    close."""
    golden = execute_program(independent_alu_loop())
    base = default_config()
    config = replace(base, detection=replace(
        base.detection, instruction_timeout=70)).validate()
    faulty = execute_forked(golden, FaultInjector([
        TransientFault(FaultSite.STORE_VALUE, seq=420, bit=3),
        TransientFault(FaultSite.RESULT, seq=493, bit=2)]))
    early, looks = verdict_with_looks(faulty, config)
    complete = verdict(faulty, config, "1", verdict_only=False).report
    first, second = complete.events[:2]
    assert first is complete.first_event
    assert second.segment_close_tick < first.detect_tick
    (_, _, first_close), (recorded, _, second_close) = looks[:2]
    cycles_left = -(-(first.detect_tick - first.segment_close_tick)
                    // config.main_core.clock().period_ticks)
    assert recorded and second_close is not None
    assert second_close - first_close > cycles_left + 1
    assert early == DetectionVerdict.of(complete) == \
        verdict(faulty, config, "0")


@settings(max_examples=120, deadline=None)
@given(long_program_draw, config_draw, st.data())
def test_look_ahead_from_the_fork_passes_only_without_events(
        draw, config, data):
    """A verdict-only run first looks ahead from its fork seq to the end
    of the trace, before it times a row, and returns with no event when
    every check passes.  That probe must name no row only if the
    complete report records no event; with real checkers, a named row
    must mean an event (ideal checkers check nothing, so they record
    none).  A run no fault perturbed is the golden trace, with no fork."""
    config = config.with_ideal_checkers(data.draw(st.booleans()))
    faulty = faulty_trace(draw, data)
    if faulty.fork_of is None:
        # no fault fired: the run is the golden trace itself, which has
        # no fork to look ahead from and fails no check
        assert not verdict(faulty, config, "1").detected
        return
    _, state, hook = _TimingSpliceCursor(faulty.fork_of, config).bundle(
        faulty.fork_seq)
    hook.begin(faulty)
    named = system._first_failing_row(hook, state.next_row, len(faulty))
    complete = verdict(faulty, config, "1", verdict_only=False).report
    if named is None:
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
    """Time to the row the look-ahead from the fork names, as a
    verdict-only run does, then look ahead twice: the same answer both
    times, and the hook as the look-ahead's catch-up of its skipped rows
    left it.  One fault is certified (no row is named); the reordered
    pair's later segment fails the look-ahead."""
    golden = benchmark_trace("stream", "small")
    faults = (list(REORDERED_FAULTS) if reordered else
              [TransientFault(FaultSite.RESULT, seq=len(golden) // 2, bit=4)])
    faulty = execute_forked(golden, FaultInjector(faults))
    config = default_config()
    core, state, hook = _TimingSpliceCursor(golden, config).bundle(
        faulty.fork_seq)
    hook.begin(faulty)
    total = len(faulty)
    named = system._first_failing_row(hook, state.next_row, total)
    assert named is not None and named < total
    core.run_rows(faulty, hook, state, named + 1)
    assert hook.report.events
    now = state.last_commit_cycle * hook.main_period
    ticks = hook.report.first_event.detect_tick - now
    assert ticks > 0
    row = state.next_row
    bound = min(total, row + 1 + config.main_core.commit_width
                * -(-ticks // hook.main_period))
    hook._catch_up()
    before = hook_state(hook)
    answers = [system._first_failing_row(hook, row, bound)
               for _ in range(2)]
    assert answers[0] == answers[1]
    assert (answers[0] is None) == certified
    assert hook_state(hook) == before


def test_look_ahead_copies_no_timing_state():
    """The look-ahead's probe copies only what closing and checking
    segments read: no checker I-cache snapshot, no in-order core model
    and no copy of the report's delay samples, whichever row it names."""
    golden = benchmark_trace("stream", "small")
    fault = TransientFault(FaultSite.RESULT, seq=len(golden) // 2, bit=4)
    faulty = execute_forked(golden, FaultInjector([fault]))
    _, state, hook = _TimingSpliceCursor(golden, default_config()).bundle(
        faulty.fork_seq)
    hook.begin(faulty)
    total = len(faulty)
    named = system._first_failing_row(hook, state.next_row, total)
    assert named is not None
    with mock.patch.object(CheckerICaches, "snapshot",
                           tripwire("CheckerICaches.snapshot")), \
            mock.patch.object(InOrderCoreModel, "__init__",
                              tripwire("InOrderCoreModel.__init__")), \
            mock.patch.object(Samples, "snapshot",
                              tripwire("Samples.snapshot")):
        assert system._first_failing_row(hook, state.next_row,
                                         total) == named
