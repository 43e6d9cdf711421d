"""Tests for bounded automatic re-lease of failed jobs (--max-attempts)."""

import pytest

from repro.harness.campaign import fault_grid
from repro.harness.manifest import CampaignManifest
from repro.harness.orchestrator import CampaignWorker, manifest_status


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def manifest(tmp_path):
    grid = fault_grid(["stream"], trials=6, scale="small", seed=3)
    with CampaignManifest.create(
            tmp_path / "m", grid, kind="fault", scheme="detection",
            scale="small", benchmarks=["stream"],
            clock=FakeClock()) as manifest:
        yield manifest


class TestTryLeaseRetry:
    def test_failed_job_not_leasable_by_default(self, manifest):
        key = manifest.unique[0].key
        manifest.record_failure(key, "w0", "boom", attempt=1)
        assert manifest.try_lease(key, "w1") is None
        assert manifest.job_state(key) == "failed"

    def test_retry_lease_consumes_envelope_and_bumps_attempt(self, manifest):
        key = manifest.unique[0].key
        manifest.record_failure(key, "w0", "boom", attempt=1)
        lease = manifest.try_lease(key, "w1", max_attempts=2)
        assert lease is not None
        assert lease.attempt == 2
        assert not manifest.is_failed(key)   # envelope consumed
        assert manifest.job_state(key) == "leased"

    def test_attempt_cap_is_terminal(self, manifest):
        key = manifest.unique[0].key
        manifest.record_failure(key, "w0", "boom", attempt=2)
        assert manifest.try_lease(key, "w1", max_attempts=2) is None
        assert manifest.is_failed(key)

    def test_lease_batch_requeues_only_within_budget(self, manifest):
        terminal = manifest.unique[0].key
        retryable = manifest.unique[1].key
        manifest.record_failure(terminal, "w0", "hard", attempt=3)
        manifest.record_failure(retryable, "w0", "flaky", attempt=1)
        settled: set[str] = set()
        batch = manifest.lease_batch("w1", limit=len(manifest.unique),
                                     settled=settled, max_attempts=3)
        keys = {job.key for job, _lease in batch}
        assert retryable in keys
        assert terminal not in keys
        assert terminal in settled


class TestWorkerRetry:
    def test_flaky_job_recovers_within_budget(self, manifest, monkeypatch):
        """A job that fails once then succeeds completes the campaign
        with max_attempts=2, and its failure envelope is gone."""
        import repro.harness.orchestrator as orch

        real = orch.execute_job
        flaky_key = manifest.unique[0].key
        calls = {"n": 0}

        def flaky(spec):
            if spec.key() == flaky_key:
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("transient executor crash")
            return real(spec)

        monkeypatch.setattr(orch, "execute_job", flaky)
        stats = CampaignWorker(manifest, worker_id="w",
                               max_attempts=2).run()
        assert calls["n"] == 2
        assert stats.failed == 1          # the first attempt
        assert stats.executed == len(manifest.unique)
        status = manifest_status(manifest)
        assert status["complete"]
        assert status["states"]["failed"] == 0
        assert status["failures"] == []

    def test_persistent_failure_stops_at_cap(self, manifest, monkeypatch):
        import repro.harness.orchestrator as orch

        real = orch.execute_job
        doomed_key = manifest.unique[0].key
        calls = {"n": 0}

        def doomed(spec):
            if spec.key() == doomed_key:
                calls["n"] += 1
                raise RuntimeError("permanent executor crash")
            return real(spec)

        monkeypatch.setattr(orch, "execute_job", doomed)
        stats = CampaignWorker(manifest, worker_id="w",
                               max_attempts=3).run()
        assert calls["n"] == 3            # exactly the attempt budget
        assert stats.failed == 3
        status = manifest_status(manifest)
        assert status["states"]["failed"] == 1
        # the surviving envelope carries the final attempt count
        failure = manifest.read_failure(doomed_key)
        assert failure is not None and failure.attempt == 3
        # a second worker at the same cap leases nothing more
        again = CampaignWorker(manifest, worker_id="w2",
                               max_attempts=3).run()
        assert again.executed == 0 and again.failed == 0

    def test_default_preserves_manual_retry_flow(self, manifest,
                                                 monkeypatch):
        """max_attempts=1 (the default) keeps today's behaviour: one
        failure, sticky until an operator clears it."""
        import repro.harness.orchestrator as orch

        def boom(spec):
            raise RuntimeError("crash")

        monkeypatch.setattr(orch, "execute_job", boom)
        stats = CampaignWorker(manifest, worker_id="w").run(max_jobs=1)
        assert stats.failed == 1
        monkeypatch.undo()
        # still failed: not retried automatically
        rerun = CampaignWorker(manifest, worker_id="w2").run()
        assert manifest_status(manifest)["states"]["failed"] == 1
        assert rerun.executed == len(manifest.unique) - 1
        # manual re-queue path still works
        assert manifest.clear_failures() == 1
        CampaignWorker(manifest, worker_id="w3").run()
        assert manifest_status(manifest)["complete"]


class TestCli:
    def test_worker_parser_accepts_max_attempts(self):
        from repro.__main__ import make_parser
        args = make_parser().parse_args(
            ["campaign-worker", "--manifest", "d", "--max-attempts", "4"])
        assert args.max_attempts == 4

    def test_worker_parser_default_is_one(self):
        from repro.__main__ import make_parser
        args = make_parser().parse_args(
            ["campaign-worker", "--manifest", "d"])
        assert args.max_attempts == 1
