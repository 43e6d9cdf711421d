"""Detection-scheme fault batches: snapshots, scheduling, capability.

Three contracts pinned here:

* **Snapshot identity** — :meth:`OoOCore.fork` now clones the (core,
  run-state, hook) bundle through explicit ``snapshot()/restore()``
  methods instead of ``copy.deepcopy``; a fork resumed to completion
  must match the deepcopy fork field for field, report for report.
* **Batch scheduling** — a detection fault-batch cell classifies each
  fault, in fork-seq order, as soon as it has executed; a fault that
  fired first has its fork seq pre-registered on the cell's shared
  timing-splice cursor (:func:`prime_splice_cursor`), which snapshots
  at that *exact* seq;
  the cursor registry is a capped LRU (``REPRO_SPLICE_CURSORS``) and
  retained planned snapshots are bounded.  None of it may be visible in
  records: batch equals per-job under every kill-switch combination,
  serially and through a manifest worker.
* **Capability gating** — ``supports_fault_batch`` governs
  ``fault-batch`` grids end to end (grid builder, wire, executor, CLI).
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.common.config import default_config
from repro.common.records import canonical_json
from repro.core.ooo_core import OoOCore
from repro.core.timing import TIMING_SPLICE_ENV
from repro.detection.faults import (
    EXECUTION_SITES,
    FaultInjector,
    FaultSite,
    TransientFault,
)
from repro.detection.system import (
    _SPLICE_CURSORS,
    SPLICE_CURSOR_ENV,
    SPLICE_PLANNED_SNAPSHOT_CAP,
    ParallelErrorDetection,
    _splice_cursor,
    _TimingSpliceCursor,
    prime_splice_cursor,
    splice_cursor_cap,
)
from repro.harness.campaign import JobSpec, execute_job, fault_batch_grid
from repro.harness.manifest import CampaignManifest
from repro.harness.orchestrator import CampaignWorker, collect
from repro.isa.blocks import BLOCK_EXEC_ENV
from repro.schemes import base as schemes_base
from repro.schemes import get_scheme, scheme_names
from repro.schemes.base import FORK_INJECTION_ENV
from repro.schemes.detection import ParallelDetectionScheme
from repro.service.wire import WireError, build_grid
from repro.workloads.suite import (
    BENCHMARK_ORDER,
    benchmark_trace,
    configure_trace_store,
)

from tests.conftest import (
    MASKED_FAULT,
    mid_trace_faults,
    never_firing_faults,
)


@pytest.fixture()
def cursor_registry():
    """An empty cursor registry for the test, restored afterwards."""
    saved = dict(_SPLICE_CURSORS)
    _SPLICE_CURSORS.clear()
    yield _SPLICE_CURSORS
    _SPLICE_CURSORS.clear()
    _SPLICE_CURSORS.update(saved)


def detection_cell(benchmark: str = "stream") -> JobSpec:
    clean_len = len(benchmark_trace(benchmark, "small"))
    # unsorted seqs, mixed sites, a shared fork seq, and a checker-side
    # fault (which must bypass the splice cursor even inside a batch)
    faults = (
        TransientFault(FaultSite.RESULT, seq=clean_len - 60, bit=4),
        TransientFault(FaultSite.BRANCH, seq=clean_len - 300, bit=0),
        TransientFault(FaultSite.STORE_VALUE, seq=clean_len - 60, bit=9),
        TransientFault(FaultSite.CHECKER, seq=clean_len - 150, bit=2),
        TransientFault(FaultSite.LOAD_ADDR, seq=clean_len - 450, bit=12),
    )
    return JobSpec("fault-batch", benchmark, "small", faults=faults,
                   scheme="detection")


class TestSnapshotForkIdentity:
    """fork() without deepcopy reproduces the deepcopy fork exactly."""

    @staticmethod
    def _deepcopy_fork(core, state, hook):
        """The pre-snapshot fork implementation, verbatim."""
        cfg = core.config
        shared = [cfg, cfg.main_core, cfg.branch, cfg.memory, cfg.checker,
                  cfg.detection, core.core, core.clock]
        if hook is not None:
            shared.extend(hook.clone_shared())
        memo = {id(obj): obj for obj in shared}
        return copy.deepcopy((core, state, hook), memo)

    @pytest.mark.parametrize("workload", ["stream", "bitcount"])
    def test_resumed_fork_matches_deepcopy_fork(self, workload):
        golden = benchmark_trace(workload, "small")
        config = default_config()
        mid = len(golden) // 2

        def finish(bundle):
            core, state, hook = bundle
            core.run_rows(golden, hook, state, len(golden))
            return core.finish_run(golden, hook, state), hook.report

        core = OoOCore(config)
        hook = ParallelErrorDetection(config, golden.program)
        hook.begin(golden)
        state = core.start_state()
        core.run_rows(golden, hook, state, mid)

        via_deepcopy = self._deepcopy_fork(core, state, hook)
        via_snapshot = core.fork(state, hook)
        result_a, report_a = finish(via_deepcopy)
        result_b, report_b = finish(via_snapshot)

        assert result_a == result_b
        assert report_a.delays_ns.values == report_b.delays_ns.values
        assert report_a.events == report_b.events
        assert (report_a.segments_checked, report_a.entries_checked,
                report_a.checkpoints_taken, report_a.closes_by_reason,
                report_a.checker_busy_ticks, report_a.log_full_stall_cycles,
                report_a.checkpoint_stall_cycles,
                report_a.all_checks_done_tick) == \
            (report_b.segments_checked, report_b.entries_checked,
             report_b.checkpoints_taken, report_b.closes_by_reason,
             report_b.checker_busy_ticks, report_b.log_full_stall_cycles,
             report_b.checkpoint_stall_cycles,
             report_b.all_checks_done_tick)

    def test_fork_shares_immutable_state(self):
        """Config, program metadata, and the clock stay shared — only
        mutable run state is copied."""
        golden = benchmark_trace("stream", "small")
        config = default_config()
        core = OoOCore(config)
        hook = ParallelErrorDetection(config, golden.program)
        hook.begin(golden)
        state = core.start_state()
        core.run_rows(golden, hook, state, 64)
        fcore, fstate, fhook = core.fork(state, hook)
        assert fcore.config is core.config
        assert fcore.core is core.core
        assert fcore.clock is core.clock
        assert fhook.config is hook.config
        assert fcore.hierarchy is not core.hierarchy
        assert fstate is not state
        assert fhook.report is not hook.report


class TestCursorRegistry:
    """The splice-cursor registry is a capped LRU with planned bounds."""

    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv(SPLICE_CURSOR_ENV, raising=False)
        assert splice_cursor_cap() == 4

    def test_env_overrides_cap(self, monkeypatch):
        monkeypatch.setenv(SPLICE_CURSOR_ENV, "2")
        assert splice_cursor_cap() == 2
        monkeypatch.setenv(SPLICE_CURSOR_ENV, "nonsense")
        assert splice_cursor_cap() == 4
        monkeypatch.setenv(SPLICE_CURSOR_ENV, "0")
        assert splice_cursor_cap() == 4

    def test_lru_eviction_past_cap(self, cursor_registry, monkeypatch):
        monkeypatch.delenv(SPLICE_CURSOR_ENV, raising=False)
        config = default_config()
        goldens = [benchmark_trace(name, "small")
                   for name in BENCHMARK_ORDER[:5]]
        cursors = [_splice_cursor(golden, config) for golden in goldens]
        assert len(cursor_registry) == 4
        # the first golden was the least recently used: evicted
        assert _splice_cursor(goldens[0], config) is not cursors[0]
        # goldens[1] fell out while re-admitting goldens[0]; touching
        # goldens[2] then admitting a fresh trace must evict goldens[3],
        # not the just-touched entry
        assert _splice_cursor(goldens[2], config) is cursors[2]
        _splice_cursor(goldens[1], config)
        assert _splice_cursor(goldens[2], config) is cursors[2]
        assert _splice_cursor(goldens[3], config) is not cursors[3]

    def test_smaller_cap_evicts_immediately(self, cursor_registry,
                                            monkeypatch):
        monkeypatch.setenv(SPLICE_CURSOR_ENV, "1")
        config = default_config()
        a = benchmark_trace("stream", "small")
        b = benchmark_trace("bitcount", "small")
        first = _splice_cursor(a, config)
        _splice_cursor(b, config)
        assert len(cursor_registry) == 1
        assert _splice_cursor(a, config) is not first

    def test_planned_boundaries_are_exact(self, cursor_registry):
        golden = benchmark_trace("stream", "small")
        config = default_config()
        seqs = [len(golden) - 37, len(golden) - 11]
        prime_splice_cursor(golden, config, seqs)
        cursor = _splice_cursor(golden, config)
        for seq in sorted(seqs):
            _, state, _ = cursor.bundle(seq)
            assert state.next_row == seq
        # an unplanned seq still rounds down to the interval boundary
        unplanned = len(golden) - 23
        _, state, _ = cursor.bundle(unplanned)
        assert state.next_row == unplanned - unplanned % cursor.interval

    def test_rewind_serves_already_passed_seqs(self, cursor_registry):
        """Planning seqs the live walk has passed re-times only the
        stretch from the retained snapshot below — still exact."""
        golden = benchmark_trace("bitcount", "small")
        config = default_config()
        cursor = _splice_cursor(golden, config)
        cursor.bundle(len(golden))  # drive the frontier to the end
        seq = len(golden) - 77
        prime_splice_cursor(golden, config, [seq])
        _, state, _ = cursor.bundle(seq)
        assert state.next_row == seq

    def test_repeated_cell_replays_from_snapshots(self, cursor_registry,
                                                  monkeypatch):
        """Re-planning an already-drained cell is pure cache: no golden
        row is re-timed (the warm path campaign repeats rely on)."""
        golden = benchmark_trace("stream", "small")
        config = default_config()
        seqs = [len(golden) - off for off in (19, 63, 141)]
        prime_splice_cursor(golden, config, seqs)
        cursor = _splice_cursor(golden, config)
        for seq in sorted(seqs):
            cursor.bundle(seq)

        def bomb(*args, **kwargs):
            raise AssertionError("golden rows re-timed on a warm cell")

        monkeypatch.setattr(OoOCore, "run_rows", bomb)
        prime_splice_cursor(golden, config, seqs)
        for seq in sorted(seqs):
            _, state, _ = cursor.bundle(seq)
            assert state.next_row == seq

    def test_planned_snapshots_bounded(self, cursor_registry):
        golden = benchmark_trace("stream", "small")
        config = default_config()
        interval = _splice_cursor(golden, config).interval
        seqs = [s for s in range(1, len(golden))
                if s % interval][:SPLICE_PLANNED_SNAPSHOT_CAP + 40]
        assert len(seqs) > SPLICE_PLANNED_SNAPSHOT_CAP
        prime_splice_cursor(golden, config, seqs)
        cursor = _splice_cursor(golden, config)
        for seq in seqs:
            cursor.bundle(seq)
        assert len(cursor._planned) <= SPLICE_PLANNED_SNAPSHOT_CAP + 1
        planned_live = [b for b in cursor._snapshots if b % interval]
        assert len(planned_live) <= SPLICE_PLANNED_SNAPSHOT_CAP + 1


class TestDetectionBatchKillSwitches:
    """Batch vs per-job byte-identity must hold with each fast path
    disabled — the acceptance pin for the batch machinery."""

    @staticmethod
    def per_job_records(spec: JobSpec) -> list[dict]:
        return [execute_job(JobSpec("fault", spec.benchmark, spec.scale,
                                    fault=fault, scheme=spec.scheme))
                for fault in spec.faults]

    @pytest.mark.parametrize("env,value", [
        (TIMING_SPLICE_ENV, "0"),
        (BLOCK_EXEC_ENV, "0"),
    ])
    def test_batch_identity_under_kill_switch(self, env, value,
                                              monkeypatch):
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        spec = detection_cell()
        reference = execute_job(spec)
        monkeypatch.setenv(env, value)
        killed = execute_job(spec)
        assert canonical_json(killed) == canonical_json(reference)
        assert canonical_json(list(killed["records"])) == \
            canonical_json(self.per_job_records(spec))

    def test_batch_manifest_worker_byte_identical(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        spec = detection_cell("bitcount")
        serial = execute_job(spec)
        manifest = CampaignManifest.create(tmp_path / "m", [spec])
        try:
            stats = CampaignWorker(manifest, worker_id="w").run()
            merged = collect(manifest)
        finally:
            configure_trace_store(None)
        assert stats.executed == 1 and stats.failed == 0
        assert merged.records_json() == canonical_json([serial])


class TestBatchVerdictIdentity:
    """Batch cells classify never-fired faults as they execute and stop
    timing detected ones early: records stay byte-identical."""

    @pytest.mark.parametrize("workload", BENCHMARK_ORDER)
    def test_mid_trace_cell_byte_identical(self, workload, verdict_paths):
        golden = benchmark_trace(workload, "small")
        faults = mid_trace_faults(workload) + tuple(
            never_firing_faults(golden, len(golden) // 4))
        spec = JobSpec("fault-batch", workload, "small", faults=faults,
                       scheme="detection")
        fast, unspliced, reference = verdict_paths(lambda: execute_job(spec))
        assert fast == unspliced == reference
        outcomes = [r["outcome"] for r in json.loads(fast)["records"]]
        assert "detected" in outcomes and "not_activated" in outcomes

    def test_masked_and_detected_cell_matches_per_job(self, monkeypatch):
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        workload, masked = MASKED_FAULT
        faults = (masked, mid_trace_faults(workload)[0])
        spec = JobSpec("fault-batch", workload, "small", faults=faults,
                       scheme="detection")
        records = execute_job(spec)["records"]
        assert [r["outcome"] for r in records] == ["masked", "detected"]
        assert canonical_json(list(records)) == canonical_json(
            TestDetectionBatchKillSwitches.per_job_records(spec))

    def test_plans_snapshots_only_for_spliced_faults(self, cursor_registry,
                                                    monkeypatch):
        """Only faults that fired (and so are re-timed through the
        splice) get an exact snapshot, each planned right before its own
        classification; never-fired and checker-side faults plan none.
        Every fault is classified before the next one executes."""
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        monkeypatch.setenv(TIMING_SPLICE_ENV, "1")
        golden = benchmark_trace("stream", "small")
        faults = (detection_cell().faults + mid_trace_faults("stream")
                  + tuple(never_firing_faults(golden, len(golden) // 3)))
        scheme = get_scheme("detection")
        events = []

        def spy(owner, name, event):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                events.append(event(*args))
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(_TimingSpliceCursor, "plan", lambda _, seqs: ("plan", list(seqs)))
        spy(scheme, "classify", lambda *args: ("classify", args[2]))
        spy(schemes_base, "execute_forked",
            lambda _, injector: ("execute", injector.faults[0]))
        verdicts = scheme.inject_batch(golden, default_config(), faults)
        fired = {fault for fault, verdict in zip(faults, verdicts)
                 if verdict.activated and fault.site in EXECUTION_SITES}
        expected = []
        for fault in sorted(faults, key=lambda f: FaultInjector(
                [f]).fork_seq(len(golden))):
            expected.append(("execute", fault))
            if fault in fired:
                expected.append(("plan", [fault.seq]))
            expected.append(("classify", fault))
        assert events == expected
        assert 0 < len(fired) < len(faults)


class TestBatchCapability:
    def test_every_scheme_declares_batch_support(self):
        for name in scheme_names():
            caps = get_scheme(name).capabilities()
            assert "supports_fault_batch" in caps
        assert get_scheme("detection").supports_fault_batch

    def test_grid_builder_rejects_unsupported_scheme(self, monkeypatch):
        monkeypatch.setattr(ParallelDetectionScheme,
                            "supports_fault_batch", False)
        with pytest.raises(ValueError,
                           match="does not support fault-batch"):
            fault_batch_grid(["stream"], trials=2, batch_size=2,
                             scheme="detection")

    def test_wire_rejects_unsupported_scheme(self, monkeypatch):
        monkeypatch.setattr(ParallelDetectionScheme,
                            "supports_fault_batch", False)
        with pytest.raises(WireError, match="does not support fault-batch"):
            build_grid({"kind": "fault-batch", "scheme": "detection",
                        "benchmarks": ["stream"], "trials": 2})

    def test_executor_rejects_unsupported_scheme(self, monkeypatch):
        """A manifest-delivered spec re-checks the capability at
        execution time, not only at grid construction."""
        monkeypatch.setattr(ParallelDetectionScheme,
                            "supports_fault_batch", False)
        clean_len = len(benchmark_trace("stream", "small"))
        spec = JobSpec(
            "fault-batch", "stream", "small",
            faults=(TransientFault(FaultSite.RESULT, seq=clean_len - 33,
                                   bit=1),),
            scheme="detection")
        with pytest.raises(ValueError,
                           match="does not support fault-batch"):
            execute_job(spec)

    def test_cli_lists_batch_column(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--schemes"]) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines() if "batch" in line)
        assert "batch" in header
        for name in ("detection", "lockstep", "rmt", "unprotected"):
            row = next(line for line in out.splitlines()
                       if line.strip().startswith(name))
            assert " yes" in row
