"""Timing-identity pins for the pre-fork timing splice.

The timing splice is a pure optimisation: a detection-scheme fault job
that splices the golden prefix's timing and re-times only the post-fork
suffix must produce records byte-identical to re-timing the whole
faulty trace — cycles, delay statistics, and coverage verdicts alike —
over the serial and manifest-worker paths, mirroring the fork/full
execution identity pins of ``test_fork_injection``.  Fault
classification may also stop timing once its verdict is final
(``verdict_only``); its verdicts must equal the splice-off and
reference paths', and it must really stop early.
"""

from __future__ import annotations

import json

import pytest

from repro.common.config import default_config
from repro.common.records import canonical_json
from repro.core.ooo_core import OoOCore
from repro.core.timing import TIMING_SPLICE_ENV, timing_splice_enabled
from repro.detection.checker import SegmentChecker
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.detection.system import (
    DetectionVerdict,
    _TimingSpliceCursor,
    run_with_detection,
)
from repro.harness.campaign import JobSpec, execute_job
from repro.harness.manifest import CampaignManifest
from repro.harness.orchestrator import CampaignWorker, collect
from repro.isa.executor import execute_forked, execute_program
from repro.schemes.base import FORK_INJECTION_ENV
from repro.workloads.suite import (
    BENCHMARK_ORDER,
    benchmark_trace,
    configure_trace_store,
)

from tests.conftest import MASKED_FAULT, mid_trace_faults
from tests.core.timing_pins import stress_config
from tests.detection.test_certified_verdict import fault_close_row

SUITE = tuple(BENCHMARK_ORDER)

#: Two faults in neighbouring segments of ``stream``: both segments
#: report an error, and the later segment's check finishes first.
REORDERED_FAULTS = (TransientFault(FaultSite.LOAD_ADDR, seq=2149, bit=24),
                    TransientFault(FaultSite.RESULT, seq=2179, bit=53))


def termination_first_faults(trace_len: int) -> tuple:
    """Two faults near the end of ``randacc`` which, under the stress
    config, fail the last two segments: the termination segment's check
    reports its error before the check of the segment before it does."""
    return (TransientFault(FaultSite.RESULT, seq=trace_len - 37, bit=3),
            TransientFault(FaultSite.STORE_VALUE, seq=trace_len - 18, bit=5))


@pytest.fixture()
def splice_modes(monkeypatch):
    """runner(fn) -> (unspliced, spliced): ``fn`` once per splice mode,
    both on the fork path (the splice needs fork metadata to engage)."""
    def runner(fn):
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        monkeypatch.setenv(TIMING_SPLICE_ENV, "0")
        unspliced = fn()
        monkeypatch.setenv(TIMING_SPLICE_ENV, "1")
        spliced = fn()
        return unspliced, spliced
    return runner


def late_spec(scheme: str, benchmark: str, offset: int = 120,
              site=FaultSite.RESULT) -> JobSpec:
    clean_len = len(benchmark_trace(benchmark, "small"))
    fault = TransientFault(site, seq=clean_len - offset, bit=4)
    return JobSpec("fault", benchmark, "small", fault=fault, scheme=scheme)


class TestEnvironmentSwitches:
    def test_splice_default_enabled(self, monkeypatch):
        monkeypatch.delenv(TIMING_SPLICE_ENV, raising=False)
        assert timing_splice_enabled()
        monkeypatch.setenv(TIMING_SPLICE_ENV, "0")
        assert not timing_splice_enabled()

    def test_stale_mode_env_is_inert(self, monkeypatch):
        """``REPRO_TIMING_MODE`` selected the removed interval model; a
        shell that still exports it must not change any record."""
        spec = late_spec("detection", "stream")
        monkeypatch.delenv("REPRO_TIMING_MODE", raising=False)
        reference = execute_job(spec)
        monkeypatch.setenv("REPRO_TIMING_MODE", "interval")
        assert canonical_json(execute_job(spec)) == canonical_json(reference)


class TestSpliceRecordIdentity:
    """Spliced timing is byte-unobservable in every campaign record."""

    @pytest.mark.parametrize("workload", SUITE)
    def test_detection_fault_job_byte_identical(self, workload,
                                                splice_modes):
        spec = late_spec("detection", workload)
        unspliced, spliced = splice_modes(lambda: execute_job(spec))
        assert canonical_json(unspliced) == canonical_json(spliced)

    @pytest.mark.parametrize("workload", SUITE)
    def test_spliced_equals_full_reexecution(self, workload, monkeypatch):
        """The strongest identity: splice on + fork on versus the
        original full path (no fork, no splice, whole-trace timing)."""
        spec = late_spec("detection", workload)
        monkeypatch.setenv(FORK_INJECTION_ENV, "0")
        monkeypatch.setenv(TIMING_SPLICE_ENV, "0")
        full = execute_job(spec)
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        monkeypatch.setenv(TIMING_SPLICE_ENV, "1")
        spliced = execute_job(spec)
        assert canonical_json(full) == canonical_json(spliced)

    @pytest.mark.parametrize("site", [FaultSite.BRANCH, FaultSite.LOAD_ADDR,
                                      FaultSite.STORE_VALUE])
    def test_other_sites_byte_identical(self, site, splice_modes):
        spec = late_spec("detection", "stream", site=site)
        unspliced, spliced = splice_modes(lambda: execute_job(spec))
        assert canonical_json(unspliced) == canonical_json(spliced)

    @pytest.mark.parametrize("scheme", ["lockstep", "rmt"])
    def test_non_timing_schemes_unaffected(self, scheme, splice_modes):
        """Lockstep/RMT never time a faulty trace: the splice switch
        must be vacuously unobservable for them."""
        spec = late_spec(scheme, "bitcount")
        unspliced, spliced = splice_modes(lambda: execute_job(spec))
        assert canonical_json(unspliced) == canonical_json(spliced)

    def test_batch_job_byte_identical(self, splice_modes):
        clean_len = len(benchmark_trace("stream", "small"))
        faults = tuple(
            TransientFault(site, seq=clean_len - off, bit=3)
            for site, off in [(FaultSite.RESULT, 40),
                              (FaultSite.BRANCH, 500),
                              (FaultSite.STORE_ADDR, 90)])
        spec = JobSpec("fault-batch", "stream", "small", faults=faults,
                       scheme="detection")
        unspliced, spliced = splice_modes(lambda: execute_job(spec))
        assert canonical_json(unspliced) == canonical_json(spliced)

    def test_manifest_worker_path_byte_identical(self, tmp_path,
                                                 monkeypatch):
        """Same grid through lease-driven manifest workers, one manifest
        per splice mode: merged records must match byte for byte."""
        specs = [late_spec("detection", name, offset=off)
                 for name in ("stream", "bitcount") for off in (60, 400)]
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        merged = {}
        try:
            for mode in ("0", "1"):
                monkeypatch.setenv(TIMING_SPLICE_ENV, mode)
                with CampaignManifest.create(tmp_path / f"m{mode}",
                                             specs) as manifest:
                    stats = CampaignWorker(manifest,
                                           worker_id=f"w{mode}").run()
                    assert stats.failed == 0
                    merged[mode] = collect(manifest).records_json()
        finally:
            configure_trace_store(None)
        assert merged["0"] == merged["1"]


class TestSpliceReportIdentity:
    """Beyond records: the raw detection report is identical too."""

    def _run(self, faulty):
        return run_with_detection(faulty, default_config())

    def test_full_report_identical(self, splice_modes):
        golden = benchmark_trace("bitcount", "small")
        fault = TransientFault(FaultSite.RESULT, seq=len(golden) - 90, bit=7)
        faulty = execute_forked(golden, FaultInjector([fault]))
        unspliced, spliced = splice_modes(lambda: self._run(faulty))
        assert unspliced.main_cycles == spliced.main_cycles
        assert unspliced.system_cycles == spliced.system_cycles
        a, b = unspliced.report, spliced.report
        assert a.delays_ns.values == b.delays_ns.values
        assert a.events == b.events
        assert (a.segments_checked, a.entries_checked, a.checkpoints_taken,
                a.closes_by_reason, a.checker_busy_ticks,
                a.log_full_stall_cycles, a.checkpoint_stall_cycles,
                a.all_checks_done_tick) == \
            (b.segments_checked, b.entries_checked, b.checkpoints_taken,
             b.closes_by_reason, b.checker_busy_ticks,
             b.log_full_stall_cycles, b.checkpoint_stall_cycles,
             b.all_checks_done_tick)

    def test_splice_actually_engages(self, monkeypatch):
        golden = benchmark_trace("stream", "small")
        fault = TransientFault(FaultSite.RESULT, seq=len(golden) - 50, bit=2)
        faulty = execute_forked(golden, FaultInjector([fault]))
        hits = []
        original = _TimingSpliceCursor.bundle

        def spy(self, fork_seq):
            hits.append(fork_seq)
            return original(self, fork_seq)

        monkeypatch.setattr(_TimingSpliceCursor, "bundle", spy)
        monkeypatch.setenv(TIMING_SPLICE_ENV, "1")
        self._run(faulty)
        assert hits == [faulty.fork_seq]

    def test_splice_veto_bypasses_cursor(self, monkeypatch):
        golden = benchmark_trace("stream", "small")
        fault = TransientFault(FaultSite.RESULT, seq=len(golden) - 50, bit=2)
        faulty = execute_forked(golden, FaultInjector([fault]))

        def bomb(self, fork_seq):
            raise AssertionError("splice cursor used despite veto")

        monkeypatch.setattr(_TimingSpliceCursor, "bundle", bomb)
        monkeypatch.setenv(TIMING_SPLICE_ENV, "0")
        self._run(faulty)

    def test_side_channel_faults_disable_splice(self, monkeypatch):
        """Checkpoint/checker faults perturb the hook itself, so those
        runs must stay on the full timing path (and still detect)."""
        golden = benchmark_trace("bitcount", "small")
        fault = TransientFault(FaultSite.CHECKPOINT, seq=2, reg="x3", bit=5)

        def bomb(self, fork_seq):
            raise AssertionError("splice despite checkpoint fault")

        monkeypatch.setattr(_TimingSpliceCursor, "bundle", bomb)
        monkeypatch.setenv(TIMING_SPLICE_ENV, "1")
        forked = execute_forked(golden, FaultInjector([fault]))
        result = run_with_detection(forked, default_config(),
                                    checkpoint_faults=[fault])
        assert result.report.detected


def timed_spans(monkeypatch, trace) -> list[tuple[int, int]]:
    """The ``(first row, stop)`` of every later ``OoOCore.run_rows`` call
    over ``trace`` (a splice cursor's golden walk is not recorded)."""
    spans = []
    original = OoOCore.run_rows

    def spy(self, timed, hook, state, stop):
        if timed is trace:
            spans.append((state.next_row, stop))
        return original(self, timed, hook, state, stop)

    monkeypatch.setattr(OoOCore, "run_rows", spy)
    return spans


def detecting_spans(monkeypatch, trace) -> list[bool]:
    """Per later ``run_rows`` call over ``trace``: whether its hook had
    recorded a detection event when the call returned."""
    spans = []
    original = OoOCore.run_rows

    def spy(self, timed, hook, state, stop):
        original(self, timed, hook, state, stop)
        if timed is trace:
            spans.append(bool(hook.report.events))

    monkeypatch.setattr(OoOCore, "run_rows", spy)
    return spans


class TestVerdictOnlyTiming:
    """Classification stops timing once its verdict is final: records
    stay byte-identical to the splice-off and reference paths."""

    @pytest.mark.parametrize("workload", SUITE)
    def test_mid_trace_fault_jobs_byte_identical(self, workload,
                                                 verdict_paths):
        specs = [JobSpec("fault", workload, "small", fault=fault,
                         scheme="detection")
                 for fault in mid_trace_faults(workload)]
        fast, unspliced, reference = verdict_paths(
            lambda: [execute_job(spec) for spec in specs])
        assert fast == unspliced == reference
        assert "detected" in [r["outcome"] for r in json.loads(fast)]

    def test_masked_fault_job_byte_identical(self, verdict_paths):
        workload, fault = MASKED_FAULT
        spec = JobSpec("fault", workload, "small", fault=fault,
                       scheme="detection")
        fast, unspliced, reference = verdict_paths(lambda: execute_job(spec))
        assert fast == unspliced == reference
        assert json.loads(fast)["outcome"] == "masked"

    def test_several_events_later_segment_checked_first(self, splice_modes,
                                                        monkeypatch):
        """The first error found by tick comes from a segment that closes
        after another error was recorded: the run must time on until the
        main core passes the earliest detection tick, not stop at the
        first event it sees."""
        golden = benchmark_trace("stream", "small")
        config = default_config()
        faulty = execute_forked(golden, FaultInjector(list(REORDERED_FAULTS)))
        report = run_with_detection(faulty, config).report
        assert len(report.events) > 1
        assert report.events[0] is not report.first_event
        unspliced, spliced = splice_modes(lambda: run_with_detection(
            faulty, config, verdict_only=True))
        full = execute_program(golden.program, fault_injector=FaultInjector(
            list(REORDERED_FAULTS)))
        reference = run_with_detection(full, config, verdict_only=True)
        assert spliced == unspliced == reference == \
            DetectionVerdict.of(report)
        # the later fault's segment closes after the earlier one's event
        # is recorded, so the run keeps timing through its close
        spans = detecting_spans(monkeypatch, faulty)
        monkeypatch.setenv(TIMING_SPLICE_ENV, "1")
        run_with_detection(faulty, config, verdict_only=True)
        assert spans.index(True) < len(spans) - 1

    def test_termination_segment_detects_first(self, splice_modes):
        """The first error found by tick comes from the termination
        segment, which closes only when the trace ends: a run that stops
        timing early must have checked that segment first."""
        golden = benchmark_trace("randacc", "small")
        config = stress_config()
        faulty = execute_forked(golden, FaultInjector(
            list(termination_first_faults(len(golden)))))
        report = run_with_detection(faulty, config).report
        assert report.closes_by_reason["termination"] == 1
        assert report.events[0] is not report.first_event
        assert report.first_event.error.segment_index == \
            report.segments_checked - 1
        unspliced, spliced = splice_modes(lambda: run_with_detection(
            faulty, config, verdict_only=True))
        assert spliced == unspliced == DetectionVerdict.of(report)

    def test_detected_fault_stops_timing_early(self, monkeypatch):
        golden = benchmark_trace("stream", "small")
        fault = TransientFault(FaultSite.RESULT, seq=len(golden) // 2, bit=4)
        faulty = execute_forked(golden, FaultInjector([fault]))
        spans = timed_spans(monkeypatch, faulty)
        monkeypatch.setenv(TIMING_SPLICE_ENV, "1")
        verdict = run_with_detection(faulty, default_config(),
                                     verdict_only=True)
        assert isinstance(verdict, DetectionVerdict) and verdict.detected
        # spans run back to back from the resumed snapshot and stop
        # well short of the end: fewer rows than the post-fork suffix
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        timed = sum(stop - start for start, stop in spans)
        assert 0 < timed < len(faulty) - faulty.fork_seq
        # a run asked for its full result still times to the end
        spans.clear()
        result = run_with_detection(faulty, default_config())
        assert spans[-1][1] == len(faulty)
        assert DetectionVerdict.of(result.report) == verdict

    def test_detected_fault_is_timed_to_its_first_failing_close(
            self, monkeypatch):
        """A one-transient run is timed in exactly one span, from its
        fork seq through the row on whose commit the segment holding its
        row closes, and the span records its first event."""
        golden = benchmark_trace("stream", "small")
        fault = TransientFault(FaultSite.RESULT, seq=len(golden) // 2, bit=4)
        faulty = execute_forked(golden, FaultInjector([fault]))
        config = default_config()
        row = fault_close_row(faulty, config)
        assert faulty.fork_seq <= row < len(faulty)
        spans = timed_spans(monkeypatch, faulty)
        detecting = detecting_spans(monkeypatch, faulty)
        monkeypatch.setenv(TIMING_SPLICE_ENV, "1")
        assert run_with_detection(faulty, config, verdict_only=True).detected
        assert spans == [(faulty.fork_seq, row + 1)]
        assert detecting == [True]

    def test_undetected_fault_is_timed_through_its_segment_close(
            self, monkeypatch):
        """Every check of a masked fault's run passes.  Its verdict times
        one span, from its fork seq through the close of the segment
        holding its row, and checks that segment once, while a run asked
        for its full result still times to the end."""
        workload, fault = MASKED_FAULT
        golden = benchmark_trace(workload, "small")
        faulty = execute_forked(golden, FaultInjector([fault]))
        config = default_config()
        row = fault_close_row(faulty, config)
        spans = timed_spans(monkeypatch, faulty)
        checked = []
        check = SegmentChecker.check

        def spy(checker, segment):
            # a segment views the log columns of the trace its hook was
            # bound to when it closed
            if segment.kinds is faulty.mem_kind:
                checked.append(segment.start_seq)
            return check(checker, segment)

        monkeypatch.setattr(SegmentChecker, "check", spy)
        monkeypatch.setenv(TIMING_SPLICE_ENV, "1")
        verdict = run_with_detection(faulty, config, verdict_only=True)
        assert not verdict.detected
        assert spans == [(faulty.fork_seq, row + 1)]
        assert len(checked) == 1 and checked[0] <= faulty.fork_seq
        full = run_with_detection(faulty, config)
        assert spans[1][0] <= faulty.fork_seq
        assert spans[-1][1] == len(faulty)
        assert verdict == DetectionVerdict.of(full.report)
