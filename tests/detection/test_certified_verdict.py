"""A verdict-only run's timing stops where its verdict is final.

A verdict-only spliced detection run times from its fork seq through
the close of the log segment that holds the trace's ``last_fault_seq``,
the last row a fault perturbed, and stops: a segment that starts after
that row replays a fault-free execution of its start checkpoint and
passes its check (the paper's strong induction over segments, §IV), so
every event is recorded by that close.  Over random programs (the
generator of ``test_block_property``, with longer loops so runs span
several log segments), random detection configs (the hook-skip
property's draw without interrupts, at the checker frequencies of the
Figure 9 sweep, and the stress config), real or ideal checkers, and
random faults (see :func:`draw_faults`), the verdict must equal the one
read off the complete report and the one of the reference path (timing
splice off), and the run must time the faulty trace back to back from
its fork seq through the row whose commit (or pre-commit, for a
macro-op overflow) closes that segment, as
:func:`repro.detection.lslog.segment_close` places it, and no row with
ideal checkers.
"""

from __future__ import annotations

import os
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.common.config import default_config
from repro.core.ooo_core import OoOCore
from repro.core.timing import TIMING_SPLICE_ENV
from repro.detection.faults import (
    EXECUTION_SITES,
    FaultInjector,
    FaultSite,
    HardFault,
    TransientFault,
)
from repro.detection.lslog import segment_close
from repro.detection.system import DetectionVerdict, run_with_detection
from repro.harness.figures import FREQUENCIES_MHZ
from repro.isa.executor import execute_forked, execute_program
from repro.isa.instructions import MASK64, Opcode
from repro.isa.program import ProgramBuilder

from tests.core.timing_pins import stress_config
from tests.detection.test_hook_skip_property import detection_draw, make_config
from tests.isa.test_block_property import (
    FAULTY_CAP,
    build_program,
    long_program_draw,
)

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


def verdict_with_spans(faulty, config):
    """The verdict of a verdict-only run with the timing splice on, and
    the ``(first row, stop)`` of each ``OoOCore.run_rows`` call it made
    over ``faulty``."""
    spans = []
    run_rows = OoOCore.run_rows

    def spy(core, trace, hook, state, stop):
        if trace is faulty:
            spans.append((state.next_row, stop))
        return run_rows(core, trace, hook, state, stop)

    with mock.patch.object(OoOCore, "run_rows", spy):
        return verdict(faulty, config, "1"), spans


def fault_close_row(faulty, config) -> int:
    """The row whose commit, or pre-commit for a macro-op overflow,
    closes the log segment holding ``faulty.last_fault_seq``: the
    closure rule iterated from row 0 of ``faulty``, without interrupts.
    ``len(faulty)`` when the termination segment holds it, or when the
    fault trapped its row, which then never committed."""
    capacity = config.detection.segment_entries(config.checker.num_cores)
    timeout = config.detection.instruction_timeout
    start, total = 0, len(faulty)
    while start < total:
        end, _, on_commit = segment_close(faulty.mem_off, start, total,
                                          capacity, timeout)
        if end > faulty.last_fault_seq:
            return end - 1 if on_commit else end
        start = end
    return total


def covered(spans) -> range:
    """Check that ``spans`` run back to back; return the rows they
    cover."""
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    return range(spans[0][0], spans[-1][1]) if spans else range(0)


def fault_span(faulty, config) -> range:
    """The rows of ``faulty`` a verdict-only spliced run times: from its
    fork seq through :func:`fault_close_row`, up to the trace end."""
    return range(faulty.fork_seq,
                 min(fault_close_row(faulty, config) + 1, len(faulty)))


def faulty_trace(draw, data):
    golden = execute_program(build_program(draw), max_instructions=20000)
    return execute_forked(golden, FaultInjector(draw_faults(data, golden)),
                          max_instructions=FAULTY_CAP)


@settings(max_examples=120, deadline=None)
@given(long_program_draw, config_draw, st.data())
def test_certified_verdict_equals_full_timing(draw, config, data):
    """With ideal checkers nothing is checked, so no event is recorded
    and no row of the faulty trace is timed.  A run no fault perturbed
    is the golden trace, with no fork to resume timing from."""
    config = config.with_ideal_checkers(data.draw(st.booleans()))
    faulty = faulty_trace(draw, data)
    early, spans = verdict_with_spans(faulty, config)
    complete = verdict(faulty, config, "1", verdict_only=False)
    reference = verdict(faulty, config, "0")
    assert early == DetectionVerdict.of(complete.report) == reference
    if faulty.fork_of is None:
        assert not early.detected
    elif config.detection.ideal_checkers:
        assert not spans
    else:
        assert covered(spans) == fault_span(faulty, config)


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


def test_later_segment_closing_before_the_first_event():
    """A corrupted store, the first entry of its log segment, is detected
    a few dozen cycles after that segment closes.  A second fault fails
    the next segment, which a 70-row timeout closes before that tick:
    the run times through that later close, and its verdict is the
    complete report's and the reference path's."""
    golden = execute_program(independent_alu_loop())
    base = default_config()
    config = replace(base, detection=replace(
        base.detection, instruction_timeout=70)).validate()
    faulty = execute_forked(golden, FaultInjector([
        TransientFault(FaultSite.STORE_VALUE, seq=420, bit=3),
        TransientFault(FaultSite.RESULT, seq=493, bit=2)]))
    early, spans = verdict_with_spans(faulty, config)
    complete = verdict(faulty, config, "1", verdict_only=False).report
    first, second = complete.events
    assert first is complete.first_event
    assert second.segment_close_tick < first.detect_tick
    assert covered(spans) == fault_span(faulty, config)
    assert early == DetectionVerdict.of(complete) == \
        verdict(faulty, config, "0")
