"""Tests for manifest-driven campaign orchestration: atomic leases,
work-stealing workers, crash resumption, and status reporting."""

import gc
import hashlib
import json
import threading
import warnings
from dataclasses import asdict

import pytest

from repro.common.config import config_from_dict, default_config
from repro.common.records import (
    JobLease,
    canonical_json,
    record_from_dict,
    record_to_dict,
)
from repro.detection.faults import FaultSite, TransientFault
from repro.harness.campaign import (
    CACHE_SCHEMA_VERSION,
    CampaignEngine,
    JobSpec,
    fault_grid,
    scheme_grid,
)
from repro.harness.manifest import (
    CampaignManifest,
    ManifestError,
    campaign_id,
    spec_from_description,
)
from repro.harness.orchestrator import (
    CampaignWorker,
    collect,
    manifest_status,
    run_campaign,
    summarize_result,
)


class FakeClock:
    """Injectable wall clock so lease expiry needs no real waiting."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def grid():
    return fault_grid(["stream"], trials=8, scale="small", seed=1)


@pytest.fixture
def manifest(tmp_path, grid):
    with CampaignManifest.create(
            tmp_path / "m", grid, kind="fault", scheme="detection",
            scale="small", benchmarks=["stream"],
            clock=FakeClock()) as manifest:
        yield manifest


class TestSpecRoundTrip:
    def test_config_from_dict_roundtrip(self):
        cfg = default_config().with_checker_freq(500.0).with_log(
            36 * 1024, None)
        assert config_from_dict(asdict(cfg)) == cfg

    @pytest.mark.parametrize("spec", [
        JobSpec("baseline", "stream", "small", default_config(),
                scheme="lockstep"),
        JobSpec("detection", "bitcount", "small", default_config(),
                interrupt_seqs=(10, 20)),
        JobSpec("fault", "stream", "small", default_config(),
                fault=TransientFault(FaultSite.LOAD_ADDR, seq=42, bit=7)),
    ])
    def test_spec_survives_json(self, spec):
        desc = json.loads(json.dumps(spec.describe()))
        rebuilt = spec_from_description(desc)
        assert rebuilt == spec
        assert rebuilt.key() == spec.key()


class TestManifestLifecycle:
    def test_create_is_idempotent(self, tmp_path, grid):
        a = CampaignManifest.create(tmp_path / "m", grid)
        b = CampaignManifest.create(tmp_path / "m", grid)
        assert a.header["campaign_id"] == b.header["campaign_id"]
        assert a.keys == b.keys

    def test_create_rejects_different_grid(self, tmp_path, grid):
        CampaignManifest.create(tmp_path / "m", grid)
        other = fault_grid(["stream"], trials=8, scale="small", seed=2)
        with pytest.raises(ManifestError, match="use a fresh directory"):
            CampaignManifest.create(tmp_path / "m", other)

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ManifestError, match="no campaign manifest"):
            CampaignManifest.load(tmp_path / "absent")

    def test_load_rejects_non_cycle_timing(self, tmp_path, grid):
        """A manifest whose job asks for another timing model — self-
        consistent keys and campaign id included — is malformed."""
        CampaignManifest.create(tmp_path / "m", grid)
        path = tmp_path / "m" / "manifest.json"
        payload = json.loads(path.read_text())
        entry = payload["jobs"][0]
        entry["spec"]["timing"] = "interval"
        entry["key"] = hashlib.sha256(
            canonical_json(entry["spec"]).encode()).hexdigest()
        payload["campaign_id"] = campaign_id(
            job["key"] for job in payload["jobs"])
        path.write_text(canonical_json(payload))
        with pytest.raises(ManifestError, match="unknown timing mode"):
            CampaignManifest.load(tmp_path / "m")

    def test_load_reconstructs_specs(self, tmp_path, grid):
        CampaignManifest.create(tmp_path / "m", grid)
        loaded = CampaignManifest.load(tmp_path / "m")
        assert tuple(j.spec for j in loaded.unique) == tuple(grid)
        assert loaded.header["campaign_id"] == campaign_id(
            spec.key() for spec in grid)

    def test_duplicate_slots_collapse_to_unique(self, tmp_path):
        spec = JobSpec("baseline", "stream", "small", default_config())
        manifest = CampaignManifest.create(tmp_path / "m",
                                           [spec, spec, spec])
        assert len(manifest.slots) == 3
        assert len(manifest.unique) == 1


class TestClose:
    def test_worker_run_leaves_no_pack_to_collect(self, tmp_path, grid):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with CampaignManifest.create(tmp_path / "m", grid) as manifest:
                # a worker writes every record, the merge reads them back
                result, stats = run_campaign(manifest)
            assert stats.executed == len(manifest.unique)
            assert len(result.records) == len(grid)
            del manifest
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)
                    and ".pack" in str(w.message)]

    def test_closed_manifest_reopens_on_next_use(self, manifest):
        CampaignWorker(manifest).run(max_jobs=2)
        manifest.close()
        manifest.close()                       # idempotent
        assert manifest_status(manifest)["states"]["done"] == 2
        CampaignWorker(manifest).run()
        assert manifest_status(manifest)["complete"]


class TestLeases:
    def test_lease_is_exclusive(self, manifest):
        key = manifest.unique[0].key
        assert manifest.try_lease(key, "a", ttl=60) is not None
        assert manifest.try_lease(key, "b", ttl=60) is None

    def test_release_returns_job(self, manifest):
        key = manifest.unique[0].key
        manifest.try_lease(key, "a", ttl=60)
        manifest.release(key)
        assert manifest.try_lease(key, "b", ttl=60) is not None

    def test_expired_lease_returns_to_pending(self, manifest):
        """The crash-recovery contract: a dead worker's leases expire and
        the jobs become leasable (and visible as pending) again."""
        clock = manifest._clock
        key = manifest.unique[0].key
        assert manifest.try_lease(key, "crashed", ttl=60) is not None
        assert manifest.job_state(key) == "leased"
        clock.advance(61)
        assert manifest.job_state(key) == "pending"
        lease = manifest.try_lease(key, "rescuer", ttl=60)
        assert lease is not None
        assert lease.worker == "rescuer"
        assert lease.attempt == 2  # reap increments the attempt count

    def test_lease_envelope_roundtrips(self, manifest):
        key = manifest.unique[0].key
        lease = manifest.try_lease(key, "a", ttl=60)
        on_disk = manifest.read_lease(key)
        assert on_disk == lease
        assert isinstance(
            record_from_dict(record_to_dict(lease)), JobLease)

    def test_lease_batch_respects_limit(self, manifest):
        batch = manifest.lease_batch("a", ttl=60, limit=3)
        assert len(batch) == 3
        rest = manifest.lease_batch("b", ttl=60, limit=100)
        assert len(rest) == len(manifest.unique) - 3
        claimed = {job.key for job, _lease in batch + rest}
        assert len(claimed) == len(manifest.unique)

    def test_overrunning_worker_cannot_release_rescuers_lease(self,
                                                              manifest):
        """A worker that overran its TTL and was reaped must not unlink
        the rescuer's live lease when it finally finishes."""
        clock = manifest._clock
        key = manifest.unique[0].key
        slow = manifest.try_lease(key, "slow", ttl=10)
        clock.advance(11)  # slow overruns; its lease expires
        rescue = manifest.try_lease(key, "rescuer", ttl=60)
        assert rescue is not None
        manifest.release(key, slow)  # slow finishes late, tries to release
        assert manifest.read_lease(key) == rescue  # rescuer unaffected
        assert manifest.job_state(key) == "leased"
        manifest.release(key, rescue)  # the owner can release
        assert manifest.job_state(key) == "pending"

    def test_lease_batch_settled_memo_skips_done_jobs(self, manifest):
        CampaignWorker(manifest, worker_id="w").run(max_jobs=3)
        settled: set[str] = set()
        batch = manifest.lease_batch("b", ttl=60, limit=100,
                                     settled=settled)
        assert len(batch) == len(manifest.unique) - 3
        assert len(settled) == 3  # the done jobs were memoised
        for job, lease in batch:
            manifest.release(job.key, lease)
        # a second scan with the memo never re-reads the settled jobs
        again = manifest.lease_batch("b", ttl=60, limit=100,
                                     settled=settled)
        assert len(again) == len(manifest.unique) - 3


class TestWorkers:
    def test_single_worker_completes_campaign(self, manifest):
        stats = CampaignWorker(manifest, worker_id="w").run()
        assert stats.executed == len(manifest.unique)
        assert stats.failed == 0
        status = manifest_status(manifest)
        assert status["complete"]

    def test_two_concurrent_workers_no_duplicates(self, tmp_path, grid):
        """Acceptance: two workers on one manifest split the campaign
        with zero duplicate executions."""
        manifest = CampaignManifest.create(tmp_path / "m", grid)
        workers = [
            CampaignWorker(CampaignManifest.load(tmp_path / "m"),
                           worker_id=f"w{i}", batch_size=2)
            for i in range(2)
        ]
        results = [None, None]

        def drive(i):
            results[i] = workers[i].run()

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = results[0].executed + results[1].executed
        assert total == len(manifest.unique)
        assert results[0].failed == results[1].failed == 0
        assert manifest_status(manifest)["complete"]
        for opened in [manifest] + [w.manifest for w in workers]:
            opened.close()

    def test_workers_racing_on_cold_store_share_one_envelope(
            self, tmp_path, grid, monkeypatch):
        """Extension of the two-worker acceptance: the shared
        golden-trace store starts cold, both workers race to warm it,
        and exactly one valid binary envelope results — the store's
        atomic publish means the race cannot leave a torn file.  Once
        the store is warm, no worker ever re-runs the clean execution:
        it forks the stored columns instead."""
        import repro.workloads.suite as suite
        from repro.harness.campaign import (
            TRACE_STORE_DIRNAME,
            CampaignEngine,
        )
        from repro.workloads.suite import configure_trace_store
        from repro.workloads.trace_store import TraceStore

        calls: list[str] = []
        real = suite.execute_program

        def counting(program, *args, **kwargs):
            calls.append(program.name)
            return real(program, *args, **kwargs)

        monkeypatch.setattr(suite, "execute_program", counting)
        configure_trace_store(None)  # drop memos from earlier tests
        try:
            manifest = CampaignManifest.create(tmp_path / "m", grid)
            workers = [
                CampaignWorker(CampaignManifest.load(tmp_path / "m"),
                               worker_id=f"w{i}", batch_size=2)
                for i in range(2)
            ]
            threads = [threading.Thread(target=w.run) for w in workers]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert manifest_status(manifest)["complete"]

            store_dir = tmp_path / "m" / TRACE_STORE_DIRNAME
            envelopes = sorted(store_dir.glob("*/*.bin"))
            assert len(envelopes) == 1
            # the surviving envelope is complete and loadable
            store = TraceStore(store_dir)
            program = suite.benchmark_program("stream", "small")
            trace = store.get(store.key("stream", "small", program),
                              program)
            assert trace is not None and len(trace) > 0
            assert store.corrupt == 0
            # the clean execution ran at most once per racing worker
            # (each may miss before the first publish), never once per
            # job — 8 fault jobs, ≤ 2 clean runs
            assert 1 <= len(calls) <= len(workers)

            # warm-store phase: a fresh process-memo plus a tripwire on
            # the clean executor proves every further campaign over the
            # same store forks the stored envelope instead (the grid is
            # built first — sizing its faults may use the warm memo)
            other = fault_grid(["stream"], trials=4, scale="small", seed=2)
            configure_trace_store(None)

            def boom(program, *args, **kwargs):
                raise AssertionError(
                    "clean execution despite a warm golden-trace store")

            monkeypatch.setattr(suite, "execute_program", boom)
            with CampaignEngine(cache_dir=tmp_path / "cache2",
                                trace_store_dir=store_dir) as engine:
                result = engine.run(list(other))
            assert len(result.records) == len(other)
            for opened in [manifest] + [w.manifest for w in workers]:
                opened.close()
        finally:
            configure_trace_store(None)

    def test_worker_max_jobs_releases_leases(self, manifest):
        stats = CampaignWorker(manifest, worker_id="w",
                               batch_size=4).run(max_jobs=3)
        assert stats.executed == 3
        status = manifest_status(manifest)
        assert status["states"]["leased"] == 0  # nothing stranded
        assert status["states"]["pending"] == len(manifest.unique) - 3

    def test_failed_job_gets_envelope_and_leaves_pool(self, manifest,
                                                      monkeypatch):
        import repro.harness.orchestrator as orch

        def boom(spec):
            raise RuntimeError("injected executor crash")

        monkeypatch.setattr(orch, "execute_job", boom)
        stats = CampaignWorker(manifest, worker_id="w").run(max_jobs=2)
        assert stats.failed == 2
        status = manifest_status(manifest)
        assert status["states"]["failed"] == 2
        assert len(status["failures"]) == 2
        assert "injected executor crash" in status["failures"][0]["error"]
        # failed jobs are not leasable until explicitly re-queued
        monkeypatch.undo()
        again = CampaignWorker(manifest, worker_id="w2").run()
        assert again.executed == len(manifest.unique) - 2
        assert manifest.clear_failures() == 2
        mop_up = CampaignWorker(manifest, worker_id="w3").run()
        assert mop_up.executed == 2
        assert manifest_status(manifest)["complete"]

    def test_collect_excludes_failed_jobs(self, manifest, monkeypatch):
        """The merge pass must report failed jobs via status, not crash
        by re-executing their deterministic exception in the engine."""
        import repro.harness.orchestrator as orch

        real = orch.execute_job
        poisoned_key = manifest.unique[0].key

        def flaky(spec):
            if spec.key() == poisoned_key:
                raise RuntimeError("deterministic failure")
            return real(spec)

        monkeypatch.setattr(orch, "execute_job", flaky)
        CampaignWorker(manifest, worker_id="w").run()
        status = manifest_status(manifest)
        assert status["states"]["failed"] == 1
        merged = collect(manifest)  # must not raise
        assert len(merged) == len(manifest.unique) - 1
        assert merged.executed == 0  # everything else replays from cache


class TestResumption:
    def test_crash_resume_is_byte_identical_to_serial(self, tmp_path, grid):
        """Acceptance: a campaign interrupted mid-flight (leases left
        behind by a crashed worker) resumes after lease expiry and its
        merged records are byte-identical to a single-process run."""
        serial = CampaignEngine(workers=1).run(grid)

        clock = FakeClock()
        manifest = CampaignManifest.create(tmp_path / "m", grid, clock=clock)
        # worker executes 3 jobs properly...
        CampaignWorker(manifest, worker_id="early").run(max_jobs=3)
        # ...then "crashes" holding two leases it never releases
        crashed = manifest.lease_batch("crashed", ttl=120, limit=2)
        assert len(crashed) == 2
        before = manifest_status(manifest)
        assert before["states"] == {
            "pending": len(manifest.unique) - 5, "leased": 2,
            "done": 3, "failed": 0}

        # a rescuer joining immediately cannot touch the leased jobs
        partial = CampaignWorker(manifest, worker_id="rescue-1").run()
        assert partial.executed == len(manifest.unique) - 5
        assert not manifest_status(manifest)["complete"]

        clock.advance(121)  # the crashed worker's leases expire
        final = CampaignWorker(manifest, worker_id="rescue-2").run()
        assert final.executed == 2
        status = manifest_status(manifest)
        assert status["complete"]

        merged = collect(manifest)
        assert merged.executed == 0  # pure cache replay
        assert merged.records_json() == serial.records_json()
        manifest.close()

    def test_finished_manifest_is_pure_replay(self, tmp_path, grid):
        with CampaignManifest.create(tmp_path / "m", grid) as manifest:
            result, _stats = run_campaign(manifest)
            assert manifest_status(manifest)["complete"]
            again, stats = run_campaign(manifest)
        assert stats.executed == 0
        assert again.records_json() == result.records_json()


class TestBulkJobStates:
    """The single-pass job_states scan must agree with the per-key
    job_state derivation in every state, including lease expiry."""

    def test_matches_per_key_states_across_all_states(self, manifest):
        keys = [job.key for job in manifest.unique]
        clock = manifest._clock
        # done: execute one job for real
        CampaignWorker(manifest, worker_id="w").run(max_jobs=1)
        # failed: a failure envelope
        manifest.record_failure(keys[1], "w", "boom")
        # leased (live) and leased (expired)
        assert manifest.try_lease(keys[2], "live", ttl=600) is not None
        assert manifest.try_lease(keys[3], "dead", ttl=30) is not None
        clock.advance(60)  # dead's lease expires; live's survives
        bulk = manifest.job_states()
        assert bulk == {k: manifest.job_state(k) for k in keys}
        assert sorted(bulk.values()).count("done") == 1
        assert bulk[keys[1]] == "failed"
        assert bulk[keys[2]] == "leased"
        assert bulk[keys[3]] == "pending"  # expired lease reads pending

    def test_ignores_temp_and_foreign_files(self, manifest):
        CampaignWorker(manifest, worker_id="w").run(max_jobs=1)
        states = manifest.job_states()
        done_key = next(k for k, s in states.items() if s == "done")
        pending = [k for k, s in states.items() if s == "pending"]
        cache = manifest.cache.root
        entry = canonical_json({"key": pending[0], "record": {},
                                "schema": CACHE_SCHEMA_VERSION})
        # a legacy one-file-per-record entry, a non-pack file beside the
        # packs and a sealed torn line must not register as done; a
        # reaped failure must not register as failed
        legacy = cache / pending[0][:2] / f"{pending[0]}.json"
        legacy.parent.mkdir()
        legacy.write_text(entry)
        (cache / "packs" / "junk.pack.tmp").write_text(entry + "\n")
        torn = canonical_json({"key": pending[1], "record": {},
                               "schema": CACHE_SCHEMA_VERSION})[:-5]
        (cache / "packs" / "dead-0.pack").write_text(torn + "\n")
        (manifest.root / "failed").mkdir(exist_ok=True)
        (manifest.root / "failed" / "junk.json.reap.1").write_text("{}")
        states = manifest.job_states()
        assert states[done_key] == "done"
        assert states[pending[0]] == states[pending[1]] == "pending"
        assert set(states) == {job.key for job in manifest.unique}

    def test_empty_manifest_dirs_read_all_pending(self, tmp_path, grid):
        manifest = CampaignManifest.create(tmp_path / "m", grid,
                                           clock=FakeClock())
        assert set(manifest.job_states().values()) == {"pending"}


class TestCacheEtags:
    def test_etag_is_schema_qualified_strong_validator(self):
        from repro.harness.campaign import CACHE_SCHEMA_VERSION, RunCache
        etag = RunCache.etag("ab" * 32)
        assert etag == f'"{CACHE_SCHEMA_VERSION}-{"ab" * 32}"'
        assert etag.startswith('"') and etag.endswith('"')

    def test_read_envelope_returns_exact_disk_bytes(self, manifest):
        CampaignWorker(manifest, worker_id="w").run(max_jobs=1)
        key = next(k for k, s in manifest.job_states().items()
                   if s == "done")
        data = manifest.cache.read_envelope(key)
        pack, = (manifest.cache.root / "packs").glob("*.pack")
        assert data + b"\n" == pack.read_bytes()
        envelope = json.loads(data)
        assert envelope["key"] == key and "record" in envelope
        assert data == canonical_json(envelope).encode()

    def test_read_envelope_rejects_missing_and_corrupt(self, manifest):
        key = manifest.unique[0].key
        assert manifest.cache.read_envelope(key) is None
        good = canonical_json({"key": key, "record": {},
                               "schema": CACHE_SCHEMA_VERSION})
        pack = manifest.cache.root / "packs" / "h-0.pack"
        pack.parent.mkdir(parents=True, exist_ok=True)
        for bad in (good.replace('"record":{}', '"record":{ '),
                    good.replace('"record":{}', '"key":"other","record":{}'),
                    good.replace('"record":{}', '"record":[]')):
            with open(pack, "a") as out:
                out.write(bad + "\n")
            assert manifest.cache.read_envelope(key) is None
        with open(pack, "a") as out:
            out.write(good + "\n")
        assert manifest.cache.read_envelope(key) == good.encode()


class TestStatus:
    def test_status_json_schema_roundtrips(self, manifest):
        CampaignWorker(manifest, worker_id="w").run(max_jobs=2)
        status = manifest_status(manifest)
        assert json.loads(json.dumps(status)) == status
        for field in ("campaign_id", "kind", "scheme", "scale",
                      "benchmarks", "slots", "jobs", "states",
                      "by_scheme", "by_kind", "failures", "complete"):
            assert field in status
        assert set(status["states"]) == {
            "pending", "leased", "done", "failed"}
        assert sum(status["states"].values()) == status["jobs"]

    def test_status_per_scheme_progress(self, tmp_path):
        grid = scheme_grid(["stream"], ["lockstep", "rmt"], scale="small")
        with CampaignManifest.create(tmp_path / "m", grid,
                                     kind="baseline") as manifest:
            CampaignWorker(manifest, worker_id="w").run(max_jobs=1)
            status = manifest_status(manifest)
        assert set(status["by_scheme"]) == {"lockstep", "rmt"}
        done = sum(g["done"] for g in status["by_scheme"].values())
        assert done == 1


class TestSummaries:
    def test_fault_summary_single_pass_matches_fields(self, tmp_path, grid):
        with CampaignManifest.create(tmp_path / "m", grid) as manifest:
            result, _stats = run_campaign(manifest)
        agg = summarize_result("fault", result, ["stream"])
        s = agg.summary
        assert s["jobs"] == len(grid)
        assert sum(s["outcomes"].values()) == len(grid)
        assert s["detected"] <= s["activated"]
        assert agg.escaped == s["outcomes"].get("escaped", 0)

    def test_timing_summary_has_slowdown(self, tmp_path):
        grid = scheme_grid(["stream"], ["lockstep"], scale="small")
        result = CampaignEngine(workers=1).run(grid)
        agg = summarize_result("baseline", result, ["stream"])
        assert agg.summary["mean_slowdown"] is not None
        assert agg.escaped == 0
