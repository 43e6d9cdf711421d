"""Fork-point fault injection through the scheme/campaign layers.

Every record a campaign can produce must be byte-identical whether a
fault job re-executed the whole program or forked the golden trace at
the earliest fault — the fork path is a pure optimisation, unobservable
in any output.
"""

from __future__ import annotations

import pytest

from repro.common.config import default_config
from repro.common.records import canonical_json
from repro.detection.checker import SegmentChecker
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.detection.system import run_with_detection
from repro.harness.campaign import JobSpec, execute_job
from repro.harness.manifest import CampaignManifest
from repro.harness.orchestrator import CampaignWorker, collect
from repro.isa.executor import execute_forked, execute_program
from repro.schemes import get_scheme
from repro.schemes.base import FORK_INJECTION_ENV, fork_injection_enabled
from repro.workloads.suite import benchmark_trace, configure_trace_store


@pytest.fixture()
def fork_modes(monkeypatch):
    """Returns a runner(fn) -> (full, forked) executing ``fn`` once per
    injection mode via the environment switch."""
    def runner(fn):
        monkeypatch.setenv(FORK_INJECTION_ENV, "0")
        full = fn()
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        forked = fn()
        return full, forked
    return runner


def late_spec(kind: str, scheme: str, site=FaultSite.RESULT,
              benchmark: str = "stream", offset: int = 120) -> JobSpec:
    clean_len = len(benchmark_trace(benchmark, "small"))
    fault = TransientFault(site, seq=clean_len - offset, bit=4)
    return JobSpec(kind, benchmark, "small", fault=fault, scheme=scheme)


class TestEnvironmentSwitch:
    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv(FORK_INJECTION_ENV, raising=False)
        assert fork_injection_enabled()
        monkeypatch.setenv(FORK_INJECTION_ENV, "0")
        assert not fork_injection_enabled()

    def test_faulty_runs_obey_env(self, monkeypatch):
        clean = benchmark_trace("stream", "small")
        faults = (TransientFault(FaultSite.RESULT, seq=len(clean) - 50, bit=2),
                  TransientFault(FaultSite.BRANCH, seq=len(clean) - 300))
        scheme = get_scheme("lockstep")
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        forked = [faulty for _, _, faulty in scheme.faulty_runs(clean, faults)]
        assert len(forked) == 2
        assert all(faulty.fork_of is clean for faulty in forked)
        monkeypatch.setenv(FORK_INJECTION_ENV, "0")
        full = [faulty for _, _, faulty in scheme.faulty_runs(clean, faults)]
        assert len(full) == 2
        assert all(faulty.fork_of is None for faulty in full)


class TestCoverageRecordIdentity:
    @pytest.mark.parametrize("scheme", ["detection", "lockstep", "rmt",
                                        "unprotected"])
    def test_fault_job_byte_identical(self, scheme, fork_modes):
        spec = late_spec("fault", scheme)
        full, forked = fork_modes(lambda: execute_job(spec))
        assert canonical_json(full) == canonical_json(forked)

    @pytest.mark.parametrize("site", [FaultSite.STORE_ADDR,
                                      FaultSite.BRANCH,
                                      FaultSite.CHECKPOINT,
                                      FaultSite.CHECKER])
    def test_detection_scheme_sites_byte_identical(self, site, fork_modes):
        spec = late_spec("fault", "detection", site=site)
        full, forked = fork_modes(lambda: execute_job(spec))
        assert canonical_json(full) == canonical_json(forked)

    def test_recovery_job_byte_identical(self, fork_modes):
        spec = late_spec("recovery", "detection", site=FaultSite.STORE_VALUE,
                         offset=300)
        full, forked = fork_modes(lambda: execute_job(spec))
        assert canonical_json(full) == canonical_json(forked)


class TestFaultBatchIdentity:
    """The ``fault-batch`` executor is a pure batching of the per-fault
    path: same verdicts, byte-identical records, in the caller's order —
    whatever order the shared fork cursor actually evaluates in."""

    SCHEMES = ["detection", "lockstep", "rmt", "unprotected"]

    @staticmethod
    def cell(scheme: str, benchmark: str = "stream") -> JobSpec:
        clean_len = len(benchmark_trace(benchmark, "small"))
        # deliberately unsorted seqs, mixed sites, and two faults sharing
        # a fork seq: the batch path must order by fork seq internally
        # yet answer (and record) in this order
        faults = (
            TransientFault(FaultSite.RESULT, seq=clean_len - 40, bit=4),
            TransientFault(FaultSite.BRANCH, seq=clean_len - 200, bit=0),
            TransientFault(FaultSite.STORE_VALUE, seq=clean_len - 40, bit=9),
            TransientFault(FaultSite.LOAD_ADDR, seq=clean_len - 500, bit=12),
            TransientFault(FaultSite.PC, seq=clean_len - 90, bit=1),
        )
        return JobSpec("fault-batch", benchmark, "small", faults=faults,
                       scheme=scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cell_equals_one_fault_cells(self, scheme, monkeypatch):
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        spec = self.cell(scheme)
        obj = get_scheme(scheme)
        clean = benchmark_trace("stream", "small")
        config = default_config()
        batch = obj.inject_batch(clean, config, spec.faults)
        assert batch == [obj.inject_batch(clean, config, (fault,))[0]
                         for fault in spec.faults]

    @pytest.mark.parametrize("fork", ["1", "0"])
    def test_faulty_runs_in_fork_seq_order(self, fork, monkeypatch):
        """The one fault loop runs every fault of a cell exactly once,
        in fork-seq order with ties in the caller's order, each under an
        injector holding that fault alone — on either path."""
        monkeypatch.setenv(FORK_INJECTION_ENV, fork)
        clean = benchmark_trace("stream", "small")
        faults = self.cell("lockstep").faults
        runs = list(get_scheme("lockstep").faulty_runs(clean, faults))
        order = [(FaultInjector([faults[i]]).fork_seq(len(clean)), i)
                 for i, _, _ in runs]
        assert order == sorted(order)
        assert sorted(i for _, i in order) == list(range(len(faults)))
        assert all(injector.faults == [faults[i]]
                   for i, injector, _ in runs)
        assert all((faulty.fork_of is clean) == (fork == "1")
                   for _, _, faulty in runs)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_batch_records_byte_identical_to_fault_jobs(self, scheme,
                                                        fork_modes):
        spec = self.cell(scheme)
        full, forked = fork_modes(lambda: execute_job(spec))
        assert canonical_json(full) == canonical_json(forked)
        per_job = [execute_job(JobSpec("fault", spec.benchmark, spec.scale,
                                       fault=fault, scheme=scheme))
                   for fault in spec.faults]
        assert canonical_json(list(forked["records"])) == \
            canonical_json(per_job)

    def test_empty_cell_rejected(self):
        spec = JobSpec("fault-batch", "stream", "small", faults=(),
                       scheme="lockstep")
        with pytest.raises(ValueError, match="empty fault cell"):
            execute_job(spec)

    def test_activation_only_truncation_invisible(self, monkeypatch):
        """Lockstep classifies from the activation list alone, so
        injection stops right after the last fault seq; forcing it to
        run every trial to completion must give identical verdicts."""
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        clean = benchmark_trace("stream", "small")
        config = default_config()
        obj = get_scheme("lockstep")
        faults = self.cell("lockstep").faults
        truncated = [obj.inject_batch(clean, config, (fault,))
                     for fault in faults]
        monkeypatch.setattr(type(obj), "verdict_needs_outcome", True)
        complete = [obj.inject_batch(clean, config, (fault,))
                    for fault in faults]
        assert truncated == complete

    def test_batch_job_survives_manifest_worker(self, tmp_path, monkeypatch):
        """A fault-batch job must round-trip the manifest (describe →
        JSON → spec) and produce the same bytes through a lease-driven
        worker as a direct serial execution."""
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        spec = self.cell("lockstep")
        serial = execute_job(spec)
        try:
            with CampaignManifest.create(tmp_path / "m", [spec]) as manifest:
                stats = CampaignWorker(manifest, worker_id="w").run()
                merged = collect(manifest)
        finally:
            configure_trace_store(None)
        assert stats.executed == 1 and stats.failed == 0
        assert merged.records_json() == canonical_json([serial])


class TestNaNStateMasking:
    def test_nan_fp_state_verdict_identical_across_paths(self, monkeypatch):
        """A computed NaN in final FP state must not flip the masked
        verdict between paths: the fork splice aliases the golden
        trace's float objects (list equality's identity shortcut says
        NaN == NaN), a full re-execution builds fresh NaNs (NaN != NaN)
        — architecturally_masked therefore compares by bit pattern."""
        from repro.isa.program import ProgramBuilder
        from repro.isa.instructions import Opcode

        b = ProgramBuilder("nanstate")
        b.emit(Opcode.FMOVI, rd=1, imm=1.0)
        b.emit(Opcode.FMOVI, rd=2, imm=0.0)
        b.emit(Opcode.FDIV, rd=3, rs1=1, rs2=2)    # inf
        b.emit(Opcode.FSUB, rd=4, rs1=3, rs2=3)    # inf - inf = NaN
        b.emit(Opcode.MOVI, rd=5, imm=1)           # seq 4: fault strikes
        b.emit(Opcode.MOVI, rd=5, imm=2)           # effect overwritten
        b.emit(Opcode.HALT)
        golden = execute_program(b.build())
        fault = TransientFault(FaultSite.RESULT, seq=4, bit=0)
        scheme = get_scheme("unprotected")
        config = default_config()

        monkeypatch.setenv(FORK_INJECTION_ENV, "0")
        full, = scheme.inject_batch(golden, config, (fault,))
        monkeypatch.setenv(FORK_INJECTION_ENV, "1")
        forked, = scheme.inject_batch(golden, config, (fault,))
        assert full == forked
        # identical NaN bit patterns are architecturally invisible
        assert full.outcome == "masked"


class TestDetectionReportIdentity:
    def _reports(self, fault, config=None):
        golden = benchmark_trace("bitcount", "small")
        config = config or default_config()
        full = run_with_detection(
            execute_program(golden.program,
                            fault_injector=FaultInjector([fault])),
            config)
        forked = run_with_detection(
            execute_forked(golden, FaultInjector([fault])), config)
        return full, forked

    def test_full_report_identical(self):
        golden = benchmark_trace("bitcount", "small")
        fault = TransientFault(FaultSite.RESULT, seq=len(golden) - 90, bit=7)
        full, forked = self._reports(fault)
        assert full.main_cycles == forked.main_cycles
        assert full.system_cycles == forked.system_cycles
        a, b = full.report, forked.report
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

    def test_fast_path_actually_engages(self, monkeypatch):
        # splice off: this test pins the full re-timing path, where every
        # pre-fork segment must be checked columnar (with the splice on, a
        # warm cursor already checked them during its one golden walk)
        from repro.core.timing import TIMING_SPLICE_ENV
        monkeypatch.setenv(TIMING_SPLICE_ENV, "0")
        golden = benchmark_trace("bitcount", "small")
        fault = TransientFault(FaultSite.RESULT, seq=len(golden) - 90, bit=7)
        hits = []
        original = SegmentChecker._check_columnar

        def spy(self, segment):
            result = original(self, segment)
            hits.append(result is not None)
            return result

        monkeypatch.setattr(SegmentChecker, "_check_columnar", spy)
        run_with_detection(
            execute_forked(golden, FaultInjector([fault])), default_config())
        assert hits and all(hits), \
            "pre-fork segments must take the columnar fast path"

    def test_full_execution_never_uses_fast_path(self, monkeypatch):
        golden = benchmark_trace("bitcount", "small")
        fault = TransientFault(FaultSite.RESULT, seq=len(golden) - 90, bit=7)

        def bomb(self, segment):
            raise AssertionError("fast path without fork metadata")

        monkeypatch.setattr(SegmentChecker, "_check_columnar", bomb)
        run_with_detection(
            execute_program(golden.program,
                            fault_injector=FaultInjector([fault])),
            default_config())

    def test_checkpoint_fault_disables_fast_path(self, monkeypatch):
        """A corrupted checkpoint is only caught by the register
        comparison the fast path elides — fork runs carrying checkpoint
        faults must stay on full replay, and still detect."""
        golden = benchmark_trace("bitcount", "small")
        fault = TransientFault(FaultSite.CHECKPOINT, seq=2, reg="x3", bit=5)

        def bomb(self, segment):
            raise AssertionError("fast path despite checkpoint fault")

        monkeypatch.setattr(SegmentChecker, "_check_columnar", bomb)
        forked = execute_forked(golden, FaultInjector([fault]))
        result = run_with_detection(forked, default_config(),
                                    checkpoint_faults=[fault])
        assert result.report.detected


class TestCheckerFastPathEquivalence:
    def test_fast_result_equals_replay_result(self):
        """The columnar fast path must return the same CheckResult the
        replay path computes for the same clean pre-fork segment."""
        golden = benchmark_trace("stream", "small")
        fault = TransientFault(FaultSite.RESULT, seq=len(golden) - 30, bit=3)
        forked = execute_forked(golden, FaultInjector([fault]))
        hook_segments = []

        original = SegmentChecker.check

        def capture(self, segment):
            hook_segments.append(segment)
            return original(self, segment)

        import unittest.mock as mock
        with mock.patch.object(SegmentChecker, "check", capture):
            run_with_detection(forked, default_config())
        pre_fork = [s for s in hook_segments
                    if s.end_seq is not None and s.end_seq <= forked.fork_seq]
        assert pre_fork, "late fault leaves plenty of pre-fork segments"

        fast = SegmentChecker(golden.program)
        fast.bind_fork(forked, golden, forked.fork_seq)
        plain = SegmentChecker(golden.program)
        for segment in pre_fork:
            a = fast.check(segment)
            b = plain.check(segment)
            assert a.ok and b.ok
            assert a.steps == b.steps
            assert a.entries_checked == b.entries_checked
            assert a.instructions_executed == b.instructions_executed
            assert a.errors == b.errors == []
