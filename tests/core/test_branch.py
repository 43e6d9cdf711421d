"""Tests for the tournament branch predictor."""

from repro.common.config import BranchPredictorConfig
from repro.core.branch import TournamentPredictor


def predictor():
    return TournamentPredictor(BranchPredictorConfig())


class TestDirection:
    def test_learns_always_taken(self):
        p = predictor()
        pc = 0x10
        # needs enough updates for the local history register to saturate
        # (all-ones) so a stable pattern-table entry accumulates training
        for _ in range(32):
            p.update_direction(pc, True)
        assert p.predict_direction(pc)

    def test_learns_always_not_taken(self):
        p = predictor()
        pc = 0x10
        for _ in range(8):
            p.update_direction(pc, False)
        assert not p.predict_direction(pc)

    def test_learns_loop_pattern(self):
        """A loop taken 7 times then exiting once: after warmup, the
        predictor should be right most of the time."""
        p = predictor()
        pc = 0x20
        correct = total = 0
        for _iteration in range(40):
            for k in range(8):
                taken = k != 7
                if p.predict_direction(pc) == taken:
                    correct += 1
                total += 1
                p.update_direction(pc, taken)
        assert correct / total > 0.8

    def test_alternating_pattern_local_history(self):
        p = predictor()
        pc = 0x30
        # warm up on strict alternation
        last = False
        for i in range(64):
            p.update_direction(pc, i % 2 == 0)
        correct = 0
        for i in range(64, 96):
            taken = i % 2 == 0
            if p.predict_direction(pc) == taken:
                correct += 1
            p.update_direction(pc, taken)
        assert correct > 28  # local history nails alternation


class TestTargets:
    def test_btb_miss_then_hit(self):
        p = predictor()
        assert p.predict_target(0x100) is None
        p.update_target(0x100, 0x500)
        assert p.predict_target(0x100) == 0x500

    def test_btb_conflict_eviction(self):
        p = predictor()
        cfg = BranchPredictorConfig()
        p.update_target(0x100, 0x500)
        p.update_target(0x100 + cfg.btb_entries, 0x900)  # same index
        assert p.predict_target(0x100) is None
        assert p.predict_target(0x100 + cfg.btb_entries) == 0x900


class TestRAS:
    def test_push_pop(self):
        p = predictor()
        p.push_return(10)
        p.push_return(20)
        assert p.pop_return() == 20
        assert p.pop_return() == 10
        assert p.pop_return() is None

    def test_overflow_drops_oldest(self):
        p = predictor()
        cfg = BranchPredictorConfig()
        for i in range(cfg.ras_entries + 4):
            p.push_return(i)
        # stack holds the most recent ras_entries returns
        for i in reversed(range(4, cfg.ras_entries + 4)):
            assert p.pop_return() == i
        assert p.pop_return() is None


class TestCombinedInterface:
    def test_counts_mispredicts(self):
        p = predictor()
        pc = 0x40
        # cold predictor + taken branch: direction or target mispredict
        assert p.mispredicted(pc, True, False, False, False, True, 0x99)
        # train it thoroughly (history must saturate)
        for _ in range(32):
            p.mispredicted(pc, True, False, False, False, True, 0x99)
        assert not p.mispredicted(pc, True, False, False, False, True, 0x99)

    def test_call_return_pairs_predict(self):
        p = predictor()
        # JAL at 10 -> 100, JALR returns to 11
        p.mispredicted(10, False, True, False, True, True, 100)
        assert not p.mispredicted(100, False, True, True, False, True, 11)

    def test_unmatched_return_mispredicts(self):
        p = predictor()
        assert p.mispredicted(100, False, True, True, False, True, 11)

    def test_jump_btb_learns(self):
        p = predictor()
        assert p.mispredicted(50, False, True, False, False, True, 200)
        assert not p.mispredicted(50, False, True, False, False, True, 200)
