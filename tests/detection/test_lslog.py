"""Tests for the partitioned load-store log: its one closure rule, and the
segments the detection hook cuts by it."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.common.config import default_config
from repro.common.errors import ConfigError
from repro.core.ooo_core import OoOCore
from repro.detection.lslog import CloseReason, segment_close
from repro.detection.system import ParallelErrorDetection
from repro.isa.executor import LOAD, NONDET, STORE, execute_program

from tests.core.timing_pins import build_pair_loop, stress_config
from tests.detection.test_checker import build_segment

FULL = CloseReason.FULL
TIMEOUT = CloseReason.TIMEOUT
INTERRUPT = CloseReason.INTERRUPT
TERMINATION = CloseReason.TERMINATION


def offsets(counts):
    """``mem_off`` of a trace whose rows log ``counts`` entries each."""
    off = [0]
    for count in counts:
        off.append(off[-1] + count)
    return off


def close(counts, start=0, capacity=4, timeout=None, interrupt=None):
    return segment_close(offsets(counts), start, len(counts), capacity,
                         timeout, interrupt)


def plan(counts, capacity=4, timeout=None):
    """``(start, end, reason)`` of every segment, iterating the rule from
    row 0."""
    segments, start = [], 0
    while start < len(counts):
        end, reason, _ = close(counts, start, capacity, timeout)
        segments.append((start, end, reason))
        start = end
    return segments


class TestFill:
    def test_full_on_the_filling_row(self):
        # the fourth one-entry row fills a four-entry segment: it closes
        # as that row commits
        assert close([1] * 6) == (4, FULL, True)

    def test_overflow_closes_before_the_row(self):
        # a two-entry macro-op cannot split over the one free entry: the
        # segment closes before it, and it goes into the next one
        assert close([1, 1, 1, 2, 1, 1]) == (3, FULL, False)
        assert plan([1, 1, 1, 2, 1, 1]) == [(0, 3, FULL), (3, 6, FULL)]

    def test_macro_op_that_just_fits_fills(self):
        assert close([1, 1, 2, 1]) == (3, FULL, True)

    def test_zero_entry_rows(self):
        # rows without entries neither fill nor close a segment: it runs
        # past them, closes on the row that fills it, and the empty rows
        # after that row open the next one
        assert close([0, 0, 1, 0, 3, 0, 0]) == (5, FULL, True)
        assert plan([2, 2, 0, 0]) == [(0, 2, FULL), (2, 4, TERMINATION)]
        assert close([0] * 5) == (5, TERMINATION, False)

    def test_termination_flushes_the_partial_segment(self):
        assert close([1, 1]) == (2, TERMINATION, False)
        assert plan([1] * 5) == [(0, 4, FULL), (4, 5, TERMINATION)]

    def test_no_termination_segment_after_a_final_fill(self):
        assert plan([1] * 4) == [(0, 4, FULL)]
        assert close([1] * 4, start=4) == (4, TERMINATION, False)
        assert close([]) == (0, TERMINATION, False)


class TestTimeout:
    def test_timeout_on_its_nth_row(self):
        assert close([0] * 10, timeout=3) == (3, TIMEOUT, True)
        assert close([0] * 10, start=4, timeout=3) == (7, TIMEOUT, True)

    def test_timeout_on_the_last_row(self):
        assert close([0] * 3, timeout=3) == (3, TIMEOUT, True)

    def test_no_timeout_when_none(self):
        assert close([0] * 10_000) == (10_000, TERMINATION, False)

    def test_fill_wins_a_tie(self):
        assert close([1, 1, 1, 1, 0], timeout=4) == (4, FULL, True)

    def test_beats_an_overflow_on_the_next_row(self):
        # the timeout closes the segment as row 2 commits, so row 3's
        # macro-op opens the next segment instead of overflowing this one
        assert close([1, 1, 1, 2], timeout=3) == (3, TIMEOUT, True)


class TestInterrupt:
    def test_closes_on_its_row(self):
        assert close([0] * 10, interrupt=5) == (6, INTERRUPT, True)

    def test_pending_interrupt_closes_the_first_row(self):
        # an interrupt at or before the segment's start (its row closed
        # the previous segment for another reason) closes the next row
        assert close([0] * 10, start=6, interrupt=5) == (7, INTERRUPT, True)

    def test_fill_and_timeout_win_a_tie(self):
        assert close([1, 1, 1, 1, 0], interrupt=3) == (4, FULL, True)
        assert close([0] * 5, timeout=2, interrupt=1) == (2, TIMEOUT, True)

    def test_beats_an_overflow_on_the_next_row(self):
        assert close([1, 1, 1, 2], interrupt=2) == (3, INTERRUPT, True)

    def test_past_the_end_never_fires(self):
        assert close([0] * 3, interrupt=3) == (3, TERMINATION, False)


class TestConfigErrors:
    def test_capacity_minimum(self):
        with pytest.raises(ConfigError):
            close([1], capacity=1)

    def test_oversized_instruction_rejected(self):
        with pytest.raises(ConfigError):
            close([5], capacity=4)

    def test_oversized_instruction_raises_in_its_own_segment(self):
        # the segment before it closes on the overflow; the one that
        # opens at it cannot hold it
        assert close([1, 5], capacity=4) == (1, FULL, False)
        with pytest.raises(ConfigError):
            close([1, 5], start=1, capacity=4)


def dispatched(trace, config, **kwargs):
    """The segments a detection hook dispatches over a run of ``trace``,
    and its report."""
    segments = []

    class Spy(ParallelErrorDetection):
        def _dispatch(self, segment, close_tick):
            segments.append(segment)
            super()._dispatch(segment, close_tick)

    hook = Spy(config, trace.program, **kwargs)
    OoOCore(config).run(trace, hook=hook)
    return segments, hook.report


@pytest.fixture(scope="module")
def pair_trace():
    return execute_program(build_pair_loop(60))


class TestHookSegments:
    def three_cores(self):
        # forty entries a segment
        base = default_config()
        return replace(
            base, checker=replace(base.checker, num_cores=3),
            detection=replace(base.detection, log_bytes=3 * 40 * 16))

    def test_index_and_slot_round_robin(self, rmw_trace):
        segments, _ = dispatched(rmw_trace, self.three_cores())
        assert len(segments) > 6
        assert [s.index for s in segments] == list(range(len(segments)))
        assert [s.slot for s in segments] == [
            i % 3 for i in range(len(segments))]

    def test_rows_and_checkpoints_chain(self, rmw_trace):
        segments, _ = dispatched(rmw_trace, self.three_cores())
        assert segments[0].start_seq == 0
        assert segments[-1].end_seq == len(rmw_trace)
        for before, after in zip(segments, segments[1:]):
            # induction chain: a segment starts where, and from the
            # checkpoint with which, its predecessor closed
            assert after.start_seq == before.end_seq
            assert after.start_checkpoint is before.end_checkpoint

    def test_segments_are_views_of_the_trace(self, pair_trace):
        config = stress_config()
        for use_lfu in (True, False):
            config = replace(config, detection=replace(
                config.detection, load_forwarding_unit=use_lfu))
            segments, _ = dispatched(pair_trace, config)
            values = (pair_trace.mem_value if use_lfu
                      else pair_trace.mem_used)
            for s in segments:
                assert s.kinds is pair_trace.mem_kind
                assert s.addrs is pair_trace.mem_addr
                assert s.values is values
                assert (s.lo, s.hi) == (pair_trace.mem_off[s.start_seq],
                                        pair_trace.mem_off[s.end_seq])
                assert len(s.commits) == s.end_seq - s.start_seq

    def test_close_counters(self, rmw_trace):
        # seven entries a segment and a 26-row timeout close about as many
        # segments on the timeout as on fill
        config = stress_config()
        config = replace(config, detection=replace(
            config.detection, instruction_timeout=26))
        segments, report = dispatched(rmw_trace, config,
                                      interrupt_seqs=[100, 300, 301])
        reasons = Counter(s.close_reason.value for s in segments)
        assert set(reasons) == {r.value for r in CloseReason}
        assert report.closes_by_reason == {
            r.value: reasons[r.value] for r in CloseReason}
        assert report.segments_checked == len(segments)


class TestDescribe:
    def test_describe(self, rmw_trace):
        segment = build_segment(rmw_trace, 0, 100)
        kinds = [segment.kinds[j] for j in range(segment.lo, segment.hi)]
        assert segment.describe(kinds.index(LOAD)).startswith("load @0x")
        assert segment.describe(kinds.index(STORE)).startswith("store @0x")
        nondet = replace(segment, kinds=[NONDET] * segment.hi)
        assert nondet.describe(0).startswith("nondet @0x")
