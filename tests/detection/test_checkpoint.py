"""Tests for register checkpoints and the architectural state tracker."""

from repro.detection.checkpoint import ArchStateTracker
from repro.isa.instructions import NUM_FP_REGS, NUM_INT_REGS


class TestTracker:
    def test_reconstructs_final_state(self, rmw_program, rmw_trace):
        tracker = ArchStateTracker()
        for dsts in rmw_trace.dsts:
            tracker.apply_dsts(dsts)
        assert tracker.xregs == rmw_trace.final_xregs
        assert tracker.fregs == rmw_trace.final_fregs

    def test_snapshot_indices_increment(self):
        tracker = ArchStateTracker()
        a = tracker.snapshot(0)
        b = tracker.snapshot(5)
        assert (a.index, b.index) == (0, 1)
        assert b.pc == 5

    def test_snapshot_is_immutable_copy(self):
        tracker = ArchStateTracker()
        ckpt = tracker.snapshot(0)
        tracker.xregs[1] = 99
        assert ckpt.xregs[1] == 0

    def test_midpoint_snapshot_matches_replayed_state(self, rmw_trace):
        """A snapshot after N commits equals the machine state a fresh
        execution reaches after N instructions."""
        from repro.isa.executor import Machine
        n = 57
        tracker = ArchStateTracker()
        tracker.apply_rows(rmw_trace.dsts, 0, n)
        ckpt = tracker.snapshot(rmw_trace.pcs[n])
        machine = Machine(rmw_trace.program)
        for _ in range(n):
            machine.step()
        assert list(ckpt.xregs) == machine.xregs
        assert list(ckpt.fregs) == machine.fregs
        assert ckpt.pc == machine.pc


class TestCheckpointCompare:
    def test_no_mismatch_on_identical(self):
        ckpt = ArchStateTracker().snapshot(0)
        assert ckpt.mismatches([0] * NUM_INT_REGS, [0.0] * NUM_FP_REGS) == []

    def test_int_mismatch_named(self):
        ckpt = ArchStateTracker().snapshot(0)
        regs = [0] * NUM_INT_REGS
        regs[7] = 1
        assert ckpt.mismatches(regs, [0.0] * NUM_FP_REGS) == ["x7"]

    def test_fp_mismatch_bitwise(self):
        ckpt = ArchStateTracker().snapshot(0)
        fregs = [0.0] * NUM_FP_REGS
        fregs[3] = -0.0  # equal as floats, different bits
        assert ckpt.mismatches([0] * NUM_INT_REGS, fregs) == ["f3"]

    def test_bit_flip_int(self):
        ckpt = ArchStateTracker().snapshot(0)
        bad = ckpt.with_bit_flip("x5", 3)
        assert bad.xregs[5] == 8
        assert ckpt.mismatches(list(bad.xregs), list(bad.fregs)) == ["x5"]

    def test_bit_flip_fp(self):
        ckpt = ArchStateTracker().snapshot(0)
        bad = ckpt.with_bit_flip("f2", 52)
        assert bad.fregs[2] != 0.0
        diffs = ckpt.mismatches(list(bad.xregs), list(bad.fregs))
        assert diffs == ["f2"]
