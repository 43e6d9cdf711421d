"""Tests for interrupt handling (§IV-G): timer-style arrivals every
``p`` committed instructions, and device-style arrivals at seeded
uniform random commits."""

from repro.common.rng import derive
from repro.detection.system import run_with_detection


class TestInterruptedDetection:
    def test_many_interrupts_still_sound(self, rmw_trace, config):
        """Splitting segments at arbitrary interrupt boundaries must
        never create false positives — each fragment validates on its own
        (the strong-induction argument is boundary-agnostic)."""
        seqs = list(range(137, len(rmw_trace), 137))
        report = run_with_detection(rmw_trace, config,
                                    interrupt_seqs=seqs).report
        assert not report.detected
        assert report.closes_by_reason["interrupt"] == len(seqs)
        assert report.entries_checked == \
            rmw_trace.load_count + rmw_trace.store_count

    def test_interrupts_shorten_detection_delay(self, rmw_trace, config):
        """Early checkpoints mean earlier checking: frequent interrupts
        should not *increase* the mean delay."""
        quiet = run_with_detection(rmw_trace, config).report
        busy = run_with_detection(
            rmw_trace, config,
            interrupt_seqs=list(range(200, len(rmw_trace), 200))).report
        assert busy.mean_delay_ns() <= quiet.mean_delay_ns() * 1.1

    def test_interrupt_checkpoints_cost_commit_pauses(self, rmw_trace,
                                                      config):
        seqs = list(range(100, len(rmw_trace), 100))
        with_irq = run_with_detection(rmw_trace, config,
                                      interrupt_seqs=seqs).report
        without = run_with_detection(rmw_trace, config).report
        assert with_irq.checkpoints_taken > without.checkpoints_taken

    def test_random_arrivals_sound(self, rmw_trace, config):
        rng = derive(3, "interrupt-arrivals")
        seqs = sorted(rng.randrange(1, len(rmw_trace)) for _ in range(7))
        report = run_with_detection(rmw_trace, config,
                                    interrupt_seqs=seqs).report
        assert not report.detected
