"""Tests for the rollback-recovery extension (paper future work)."""

import pytest

from repro.common.config import default_config
from repro.detection.checkpoint import ArchStateTracker
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.isa.executor import STORE, execute_program
from repro.recovery.rollback import (
    build_snapshots,
    detect_and_recover,
    resume_from,
    _segment_starts,
)
from repro.recovery.snapshots import SnapshotStore

from tests.conftest import build_rmw_loop


@pytest.fixture(scope="module")
def program():
    return build_rmw_loop(iterations=400)


@pytest.fixture(scope="module")
def clean(program):
    return execute_program(program)


def apply_stores(store, trace, start, stop):
    """Feed rows ``[start, stop)`` of ``trace``'s stores to ``store``."""
    for j in range(trace.mem_off[start], trace.mem_off[stop]):
        if trace.mem_kind[j] == STORE:
            store.apply_store(trace.mem_addr[j], trace.mem_value[j])


class TestSnapshotStore:
    def test_undo_logged_memory_evolves(self, clean):
        tracker = ArchStateTracker()
        store = SnapshotStore(clean.program.initial_memory(),
                              tracker.snapshot(0))
        apply_stores(store, clean, 0, len(clean))
        # the evolving image equals the final architectural memory
        for addr, value in clean.memory.items():
            assert store.memory.load(addr) == value

    def test_snapshot_isolated_from_future_stores(self, clean):
        tracker = ArchStateTracker()
        store = SnapshotStore(clean.program.initial_memory(),
                              tracker.snapshot(0))
        n = 120
        apply_stores(store, clean, 0, n)
        for i in range(n):
            tracker.apply_dsts(clean.dsts[i])
        snap = store.take_snapshot(n, tracker.snapshot(clean.pcs[n]))
        frozen = {a: v for a, v in snap.memory.items()}
        apply_stores(store, clean, n, len(clean))
        assert {a: v for a, v in snap.memory.items()} == frozen

    def test_verification_ordering(self, clean):
        tracker = ArchStateTracker()
        store = SnapshotStore(clean.program.initial_memory(),
                              tracker.snapshot(0))
        s1 = store.take_snapshot(100, tracker.snapshot(0))
        s2 = store.take_snapshot(200, tracker.snapshot(0))
        assert not s1.verified and not s2.verified
        store.mark_verified_up_to(150)
        assert s1.verified and not s2.verified
        assert store.latest_verified() is s1

    def test_entry_state_always_verified(self, clean):
        tracker = ArchStateTracker()
        store = SnapshotStore(clean.program.initial_memory(),
                              tracker.snapshot(0))
        assert store.latest_verified().verified
        assert store.latest_verified().seq == 0

    def test_undo_cost_counts_stores(self, clean):
        tracker = ArchStateTracker()
        store = SnapshotStore(clean.program.initial_memory(),
                              tracker.snapshot(0))
        apply_stores(store, clean, 0, len(clean))
        assert store.undo_cost_entries() == clean.store_count


class TestResume:
    def test_resume_from_midpoint_matches(self, program, clean):
        starts = _segment_starts(clean, default_config())
        store = build_snapshots(clean, starts)
        store.mark_verified_up_to(starts[len(starts) // 2])
        snapshot = store.latest_verified()
        machine = resume_from(program, snapshot)
        assert machine.xregs == clean.final_xregs
        assert machine.fregs == clean.final_fregs
        for addr, value in clean.memory.items():
            assert machine.memory.load(addr) == value


class TestDetectAndRecover:
    def test_transient_fault_recovered(self, program):
        fault = TransientFault(FaultSite.STORE_VALUE,
                               seq=3 + 8 * 200 + 5, bit=4)
        injector = FaultInjector([fault])
        faulty = execute_program(program, fault_injector=injector)
        outcome = detect_and_recover(program, faulty, default_config())
        assert outcome.detected
        assert outcome.recovered
        assert outcome.state_correct
        assert outcome.rollback_seq is not None
        assert outcome.replayed_instructions > 0

    def test_rollback_point_is_before_fault(self, program):
        fault_seq = 3 + 8 * 200 + 5
        fault = TransientFault(FaultSite.STORE_VALUE, seq=fault_seq, bit=4)
        injector = FaultInjector([fault])
        faulty = execute_program(program, fault_injector=injector)
        outcome = detect_and_recover(program, faulty, default_config())
        assert outcome.rollback_seq <= fault_seq

    def test_fault_free_run_reports_clean(self, program, clean):
        outcome = detect_and_recover(program, clean, default_config())
        assert not outcome.detected
        assert outcome.recovered
        assert outcome.state_correct
        assert outcome.replayed_instructions == 0

    def test_result_fault_recovered(self, program):
        fault = TransientFault(FaultSite.RESULT, seq=3 + 8 * 150 + 4, bit=9)
        injector = FaultInjector([fault])
        faulty = execute_program(program, fault_injector=injector)
        outcome = detect_and_recover(program, faulty, default_config())
        assert outcome.detected
        assert outcome.state_correct

    def test_early_fault_rolls_to_entry(self, program):
        fault = TransientFault(FaultSite.STORE_VALUE, seq=3 + 5, bit=4)
        injector = FaultInjector([fault])
        faulty = execute_program(program, fault_injector=injector)
        outcome = detect_and_recover(program, faulty, default_config())
        assert outcome.detected
        assert outcome.rollback_seq == 0  # first segment: entry snapshot
        assert outcome.state_correct

