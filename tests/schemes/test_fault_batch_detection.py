"""Detection-scheme fault cells: snapshots and scheduling.

Two contracts pinned here:

* **Snapshot identity** — :meth:`OoOCore.fork` now clones the (core,
  run-state, hook) bundle through explicit ``snapshot()/restore()``
  methods instead of ``copy.deepcopy``; a fork resumed to completion
  must match the deepcopy fork field for field, report for report.
* **Cell scheduling** — a detection fault cell classifies each fault,
  in fork-seq order, as soon as it has executed; a fault that fired is
  re-timed from the shared timing-splice cursor's snapshot at *exactly*
  its fork seq, which ``bundle`` takes on demand — ahead of the live
  walk or behind it.  The cursor registry is a capped LRU
  (``SPLICE_CURSOR_CAP``) and a cursor keeps only its interval
  snapshots, in any arrival order.  None of it may be visible in
  records: a cell
  equals its faults run as ``fault`` jobs under every kill-switch
  combination, serially and through a manifest worker.
"""

from __future__ import annotations

import copy
import json
import sys
import threading

import pytest

from repro.common.config import default_config
from repro.common.records import canonical_json
from repro.core.ooo_core import OoOCore
from repro.core.timing import TIMING_SPLICE_ENV
from repro.detection.checker import SegmentChecker
from repro.detection.faults import (
    EXECUTION_SITES,
    FaultInjector,
    FaultSite,
    TransientFault,
)
from repro.detection import system as detection_system
from repro.detection.system import (
    _SPLICE_CURSORS,
    ParallelErrorDetection,
    _splice_cursor,
    _TimingSpliceCursor,
    run_with_detection,
)
from repro.harness.campaign import JobSpec, execute_job, fault_grid
from repro.harness.manifest import CampaignManifest
from repro.harness.orchestrator import CampaignWorker, collect
from repro.isa import executor
from repro.isa.blocks import BLOCK_EXEC_ENV
from repro.schemes import base as schemes_base
from repro.schemes import get_scheme
from repro.schemes.base import FORK_INJECTION_ENV
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
from tests.core.timing_pins import report_fields


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

    @pytest.mark.parametrize("workload", ["stream", "bitcount"])
    def test_source_runs_on_before_its_fork_finishes(self, workload):
        """Cache sets are shared copy-on-write between a core and its
        fork: the source timing to the trace end first must leave the
        fork's state alone, so both finish as the deepcopy fork does."""
        golden = benchmark_trace(workload, "small")
        config = default_config()
        mid = len(golden) // 2

        def finish(bundle):
            core, state, hook = bundle
            core.run_rows(golden, hook, state, len(golden))
            return core.finish_run(golden, hook, state), report_fields(
                hook.report)

        core = OoOCore(config)
        hook = ParallelErrorDetection(config, golden.program)
        hook.begin(golden)
        state = core.start_state()
        core.run_rows(golden, hook, state, mid)

        via_deepcopy = self._deepcopy_fork(core, state, hook)
        via_snapshot = core.fork(state, hook)
        source = finish((core, state, hook))
        assert finish(via_snapshot) == source == finish(via_deepcopy)

    def test_fork_shares_cache_sets_until_written(self):
        """Right after a fork, the clone's L1I, L1D and L2 sets are the
        source's dicts; one hit on the clone copies exactly its set."""
        golden = benchmark_trace("stream", "small")
        config = default_config()
        core = OoOCore(config)
        hook = ParallelErrorDetection(config, golden.program)
        hook.begin(golden)
        state = core.start_state()
        core.run_rows(golden, hook, state, 2048)
        fcore, _, _ = core.fork(state, hook)
        for level in ("l1i", "l1d", "l2"):
            source = getattr(core.hierarchy, level)._sets
            clone = getattr(fcore.hierarchy, level)._sets
            assert len(clone) == len(source)
            assert all(a is b for a, b in zip(clone, source))
        l1d = fcore.hierarchy.l1d
        index = max(range(len(l1d._sets)), key=lambda i: len(l1d._sets[i]))
        before = list(l1d._sets[index])
        hit, _ = l1d.lookup(before[0] << l1d._line_shift,
                            state.last_commit_cycle + 1000)
        assert hit
        source = core.hierarchy.l1d._sets
        assert [i for i, (a, b) in enumerate(zip(l1d._sets, source))
                if a is not b] == [index]
        assert list(source[index]) == before
        assert list(l1d._sets[index]) == before[1:] + before[:1]

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

    def test_forks_share_one_segment_checker(self, monkeypatch):
        """Nothing writes a segment checker after it is built: a fork
        checks with its source's checker, and checks, one a checker
        fault strikes included, leave its fields as they were."""
        golden = benchmark_trace("stream", "small")
        config = default_config()
        mid = len(golden) // 2
        # a row past the fork that writes an integer register other than
        # x0: the checker fault flips that write in the segment's replay
        seq = next(row for row in range(mid, len(golden))
                   if any(not is_fp and idx
                          for is_fp, idx, _ in golden.dsts[row][:1]))
        checker_faults = [TransientFault(FaultSite.CHECKER, seq=seq, bit=3)]
        assert run_with_detection(golden, config,
                                  checker_faults=checker_faults).report.events
        core = OoOCore(config)
        hook = ParallelErrorDetection(config, golden.program,
                                      checker_faults=checker_faults)
        hook.begin(golden)
        state = core.start_state()
        core.run_rows(golden, hook, state, mid)
        checker = hook.segment_checker
        fields = dict(vars(checker))
        faults = {at: list(struck)
                  for at, struck in checker._faults_by_seq.items()}
        checkers = []
        check = SegmentChecker.check

        def spy(self, segment):
            checkers.append(self)
            return check(self, segment)

        monkeypatch.setattr(SegmentChecker, "check", spy)
        _, fstate, fhook = core.fork(state, hook)
        assert fhook.segment_checker is checker
        core.run_rows(golden, fhook, fstate, len(golden))
        assert fhook.report.events
        assert checkers and all(c is checker for c in checkers)
        assert vars(checker) == fields
        assert checker._faults_by_seq == faults


class TestCursorRegistry:
    """The splice-cursor registry is a capped LRU; every bundle is exact
    and a cursor keeps only its interval snapshots."""

    def test_lru_eviction_past_cap(self, cursor_registry, monkeypatch):
        monkeypatch.setattr(detection_system, "SPLICE_CURSOR_CAP", 4)
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
        monkeypatch.setattr(detection_system, "SPLICE_CURSOR_CAP", 1)
        config = default_config()
        a = benchmark_trace("stream", "small")
        b = benchmark_trace("bitcount", "small")
        first = _splice_cursor(a, config)
        _splice_cursor(b, config)
        assert len(cursor_registry) == 1
        assert _splice_cursor(a, config) is not first

    def test_seqs_ahead_of_frontier_are_exact(self, cursor_registry):
        golden = benchmark_trace("stream", "small")
        cursor = _splice_cursor(golden, default_config())
        for seq in (len(golden) - 37, len(golden) - 11):
            assert seq % cursor.interval
            _, state, _ = cursor.bundle(seq)
            assert state.next_row == seq
            assert cursor.state.next_row == seq
        # a seq past the end resumes at the end
        _, state, _ = cursor.bundle(len(golden) + 5)
        assert state.next_row == len(golden)

    def test_seq_behind_frontier_is_exact(self, cursor_registry):
        """A seq the live walk has passed re-times a detached clone from
        the retained snapshot below — exact, unkept, and the live run
        stays where it is."""
        golden = benchmark_trace("bitcount", "small")
        cursor = _splice_cursor(golden, default_config())
        cursor.bundle(len(golden))  # drive the frontier to the end
        seq = len(golden) - 77
        assert seq % cursor.interval
        kept = dict(cursor._snapshots)
        _, state, _ = cursor.bundle(seq)
        assert state.next_row == seq
        assert cursor.state.next_row == len(golden)
        assert cursor._snapshots == kept

    def test_repeated_seqs_retime_nothing(self, cursor_registry,
                                          monkeypatch):
        """Bundling the live run's seq again, or an interval boundary it
        has passed, is pure cache: no golden row is re-timed."""
        golden = benchmark_trace("stream", "small")
        cursor = _splice_cursor(golden, default_config())
        seq = len(golden) - 19
        cursor.bundle(seq)

        def bomb(*args, **kwargs):
            raise AssertionError("golden rows re-timed for a repeated seq")

        monkeypatch.setattr(OoOCore, "run_rows", bomb)
        for again in (seq, seq, cursor.interval, 0):
            _, state, _ = cursor.bundle(again)
            assert state.next_row == again
        assert cursor.state.next_row == seq

    @pytest.mark.parametrize("descending", [False, True])
    def test_keeps_interval_snapshots_only(self, cursor_registry,
                                           descending):
        """Whatever order seqs arrive in, every bundle is exact and the
        cursor retains one snapshot per interval boundary it has passed,
        nothing more: resident state is bounded by the trace length."""
        golden = benchmark_trace("stream", "small")
        cursor = _splice_cursor(golden, default_config())
        interval = cursor.interval
        seqs = [s for s in range(1, len(golden), 37) if s % interval]
        assert len(seqs) > 100 and seqs[-1] > 3 * interval
        if descending:
            seqs.reverse()
        for seq in seqs:
            _, state, _ = cursor.bundle(seq)
            assert state.next_row == seq
            assert all(b % interval == 0 for b in cursor._snapshots)
        assert cursor.state.next_row == max(seqs)
        assert sorted(cursor._snapshots) == list(
            range(0, max(seqs) + 1, interval))


class TestCursorThreads:
    """Threads sharing a splice cursor take turns in ``bundle``.  The
    first thread parks inside its first ``run_rows`` call until a second
    thread has called ``bundle`` on the same cursor and, unless the
    cursor's lock holds it off, finished; the wait is bounded, so the
    locked cursor cannot deadlock."""

    def test_threads_take_turns(self, cursor_registry, monkeypatch):
        golden = benchmark_trace("stream", "small")
        config = default_config()
        cursor = _splice_cursor(golden, config)
        # both inside the first snapshot interval: at the fork seq of the
        # first thread, the second's walk has already passed it
        seqs = {"first": 100, "second": 300}
        assert max(seqs.values()) < cursor.interval
        second_called = threading.Event()
        second_done = threading.Event()
        real_run_rows = OoOCore.run_rows
        real_bundle = _TimingSpliceCursor.bundle
        parked = []

        def run_rows(self, *args, **kwargs):
            if threading.current_thread().name == "first" and not parked:
                parked.append(True)
                spawn("second")
                assert second_called.wait(10)
                second_done.wait(0.5)
            return real_run_rows(self, *args, **kwargs)

        def bundle(self, fork_seq):
            second = threading.current_thread().name == "second"
            if second:
                second_called.set()
            try:
                return real_bundle(self, fork_seq)
            finally:
                if second:
                    second_done.set()

        monkeypatch.setattr(OoOCore, "run_rows", run_rows)
        monkeypatch.setattr(_TimingSpliceCursor, "bundle", bundle)
        bundles, errors, threads = {}, [], []

        def run(name):
            try:
                bundles[name] = cursor.bundle(seqs[name])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        def spawn(name):
            thread = threading.Thread(target=run, args=(name,), name=name)
            threads.append(thread)
            thread.start()

        spawn("first")
        threads[0].join(30)     # the first thread spawns the second
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert not errors, errors

        def finish(core, state, hook):
            core.run_rows(golden, hook, state, len(golden))
            return core.finish_run(golden, hook, state)

        for name, seq in seqs.items():
            core, state, hook = bundles[name]
            assert state.next_row == seq, name
            straight = _TimingSpliceCursor(golden, config).bundle(seq)
            assert finish(core, state, hook) == finish(*straight), name


    def test_stress_shared_cursors(self, cursor_registry, monkeypatch):
        """Eight threads run detection fault jobs on two golden traces
        through the process's shared fork and splice cursors, switching
        every 10 µs: every record equals the serial run's."""
        specs = fault_grid(["stream", "bitcount"], trials=12, seed=3,
                           scheme="detection").jobs
        serial = [canonical_json(execute_job(spec)) for spec in specs]
        cursor_registry.clear()
        monkeypatch.setattr(executor, "_FORK_CURSORS", {})
        records = [None] * len(specs)
        errors = []

        def run(lane):
            try:
                for i in range(lane, len(specs), 8):
                    records[i] = canonical_json(execute_job(specs[i]))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(lane,))
                   for lane in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert records == serial


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
        try:
            with CampaignManifest.create(tmp_path / "m", [spec]) as manifest:
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

    def test_bundles_only_spliced_faults(self, cursor_registry,
                                         monkeypatch):
        """Only faults that fired (and so are re-timed through the
        splice) take a cursor bundle, once each, at their own fork seq,
        during their own classification; never-fired and checker-side
        faults take none.  Every fault is classified before the next one
        executes."""
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

        spy(_TimingSpliceCursor, "bundle", lambda _, seq: ("bundle", seq))
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
            expected.append(("classify", fault))
            if fault in fired:
                expected.append(("bundle", fault.seq))
        assert events == expected
        assert 0 < len(fired) < len(faults)

    def test_fault_job_resumes_at_exact_fork_seq(self, cursor_registry,
                                                 monkeypatch):
        """A per-fault detection ``fault`` job times its faulty trace
        from exactly its fork seq: no faulty row before it is re-timed,
        whatever the cursor's interval boundaries."""
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        monkeypatch.setenv(TIMING_SPLICE_ENV, "1")
        fault = mid_trace_faults("stream")[0]
        assert fault.seq % _splice_cursor(
            benchmark_trace("stream", "small"), default_config()).interval
        faulty_traces = []
        original_forked = schemes_base.execute_forked

        def forked(*args, **kwargs):
            faulty_traces.append(original_forked(*args, **kwargs))
            return faulty_traces[-1]

        monkeypatch.setattr(schemes_base, "execute_forked", forked)
        spans = []
        original_rows = OoOCore.run_rows

        def run_rows(self, timed, hook, state, stop):
            spans.append((timed, state.next_row, stop))
            return original_rows(self, timed, hook, state, stop)

        monkeypatch.setattr(OoOCore, "run_rows", run_rows)
        record = execute_job(JobSpec("fault", "stream", "small", fault=fault,
                                     scheme="detection"))
        assert record["outcome"] == "detected"
        faulty, = faulty_traces
        first_row = next(row for timed, row, _ in spans if timed is faulty)
        assert first_row == faulty.fork_seq == fault.seq


