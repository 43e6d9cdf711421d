"""Tests for the parallel campaign engine and its on-disk run cache."""

import dataclasses
import json
import sys

import pytest

from repro.common.config import SystemConfig, default_config
from repro.detection.faults import FaultSite, TransientFault
from repro.harness.campaign import (
    CACHE_SCHEMA_VERSION,
    CampaignEngine,
    JobSpec,
    RunCache,
    config_fingerprint,
    detection_grid,
    execute_job,
    fault_batch_grid,
    fault_grid,
    recovery_grid,
)
from repro.schemes import scheme_names


@pytest.fixture(scope="module")
def cfg():
    return default_config()


class TestKeys:
    def test_fingerprint_stable(self, cfg):
        assert config_fingerprint(cfg) == config_fingerprint(default_config())

    def test_fingerprint_tracks_knobs(self, cfg):
        assert (config_fingerprint(cfg)
                != config_fingerprint(cfg.with_checker_freq(500.0)))
        assert (config_fingerprint(cfg)
                != config_fingerprint(cfg.with_log(36 * 1024, None)))

    def test_equal_specs_share_key(self, cfg):
        a = JobSpec("detection", "stream", "small", cfg)
        b = JobSpec("detection", "stream", "small", default_config())
        assert a == b and a.key() == b.key()

    def test_key_separates_dimensions(self, cfg):
        base = JobSpec("detection", "stream", "small", cfg)
        assert base.key() != JobSpec("baseline", "stream", "small", cfg).key()
        assert base.key() != JobSpec("detection", "randacc", "small", cfg).key()
        assert base.key() != JobSpec("detection", "stream", "default", cfg).key()
        assert base.key() != JobSpec(
            "detection", "stream", "small",
            cfg.with_checker_cores(6)).key()

    def test_fault_in_key(self, cfg):
        fault = TransientFault(FaultSite.STORE_VALUE, seq=100, bit=3)
        other = TransientFault(FaultSite.STORE_VALUE, seq=101, bit=3)
        assert (JobSpec("fault", "stream", "small", cfg, fault=fault).key()
                != JobSpec("fault", "stream", "small", cfg, fault=other).key())

    def test_describe_is_json_safe(self, cfg):
        fault = TransientFault(FaultSite.BRANCH, seq=7)
        spec = JobSpec("fault", "stream", "small", cfg, fault=fault,
                       interrupt_seqs=(10, 20))
        json.dumps(spec.describe())  # must not raise


@pytest.fixture
def config_walks(monkeypatch):
    """Every ``dataclasses.asdict`` walk of a :class:`SystemConfig`, seen
    through every module that bound the function at import."""
    walks = []
    real = dataclasses.asdict

    def spy(obj, *args, **kwargs):
        if isinstance(obj, SystemConfig):
            walks.append(obj)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(dataclasses, "asdict", spy)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "asdict", None) is real:
            monkeypatch.setattr(module, "asdict", spy)
    return walks


class TestKeyMemo:
    def test_config_tree_walked_once_per_object(self, config_walks):
        cfg = default_config().with_checker_freq(500.0)
        fault = TransientFault(FaultSite.RESULT, seq=9)
        spec = JobSpec("fault", "stream", "small", cfg, fault=fault)
        first = (config_fingerprint(cfg), spec.key())
        assert config_walks == [cfg]
        # a second fingerprint or key, or another spec over the same
        # config object, reuses the walk
        assert (config_fingerprint(cfg), spec.key()) == first
        JobSpec("fault-batch", "stream", "small", cfg, faults=(fault,)).key()
        assert config_walks == [cfg]


class TestRunCache:
    def test_roundtrip(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert cache.hits == 1 and cache.writes == 1

    def test_miss_on_absent(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get("cd" * 32) is None
        assert cache.misses == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"x": 1})
        cache._path(key).write_text("{ not json")
        assert cache.get(key) is None

    @pytest.mark.parametrize("body", ["null", "[]", "7", '"x"',
                                      '{"key": null}'])
    def test_valid_json_wrong_shape_reads_as_miss(self, tmp_path, body):
        cache = RunCache(tmp_path)
        key = "23" * 32
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_text(body)
        assert cache.get(key) is None

    def test_envelope_missing_record_reads_as_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        key = "45" * 32
        cache.put(key, {"x": 1})
        envelope = json.loads(cache._path(key).read_text())
        del envelope["record"]
        cache._path(key).write_text(json.dumps(envelope))
        assert cache.get(key) is None

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        key = "01" * 32
        cache.put(key, {"x": 1})
        envelope = json.loads(cache._path(key).read_text())
        envelope["schema"] = CACHE_SCHEMA_VERSION + 1
        cache._path(key).write_text(json.dumps(envelope))
        assert cache.get(key) is None


class TestGrids:
    def test_fault_grid_deterministic(self):
        a = fault_grid(["stream"], trials=8, scale="small", seed=3)
        b = fault_grid(["stream"], trials=8, scale="small", seed=3)
        assert tuple(a) == tuple(b)
        c = fault_grid(["stream"], trials=8, scale="small", seed=4)
        assert tuple(a) != tuple(c)

    def test_fault_grid_cycles_sites(self):
        grid = fault_grid(["stream"], trials=12, scale="small")
        sites = {job.fault.site for job in grid}
        assert len(sites) == 6

    def test_shards_partition(self):
        grid = fault_grid(["stream"], trials=9, scale="small")
        pieces = [grid.shard(i, 4).jobs for i in range(4)]
        assert sum(len(p) for p in pieces) == len(grid)
        assert set().union(*[set(p) for p in pieces]) == set(grid.jobs)

    def test_shard_bounds(self):
        grid = fault_grid(["stream"], trials=2, scale="small")
        with pytest.raises(ValueError):
            grid.shard(2, 2)

    def test_detection_grid_shape(self, cfg):
        grid = detection_grid(["stream", "bitcount"],
                              [cfg, cfg.with_checker_freq(500.0)])
        kinds = [job.kind for job in grid]
        assert kinds.count("baseline") == 2
        assert kinds.count("detection") == 4

    def test_recovery_grid_fault_window(self):
        grid = recovery_grid(["stream"], trials=4, scale="small")
        for job in grid:
            assert job.kind == "recovery"
            assert job.fault.site is FaultSite.STORE_VALUE

    @pytest.mark.parametrize("scheme", scheme_names())
    def test_fault_batch_grid_draws_same_fault_stream(self, scheme):
        """Batching must not change which faults a campaign injects, and
        no scheme flag gates it: under every registered scheme the
        batched grid's cells concatenate to exactly the unbatched grid's
        faults, same seed, fault for fault."""
        grid = fault_grid(["stream", "bitcount"], trials=7, seed=3,
                          scheme=scheme)
        batched = fault_batch_grid(["stream", "bitcount"], trials=7,
                                   batch_size=3, seed=3, scheme=scheme)
        assert [f for job in batched for f in job.faults] == \
            [job.fault for job in grid]
        assert all(job.kind == "fault-batch" and job.scheme == scheme
                   for job in batched)
        assert [len(job.faults) for job in batched] == [3, 3, 1, 3, 3, 1]

    def test_fault_batch_grid_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch size"):
            fault_batch_grid(["stream"], trials=4, batch_size=0)


class TestExecuteJob:
    def test_unknown_kind(self, cfg):
        with pytest.raises(ValueError, match="unknown job kind"):
            execute_job(JobSpec("mystery", "stream", "small", cfg))

    def test_detection_record_fields(self, cfg):
        record = execute_job(JobSpec("detection", "stream", "small", cfg))
        assert record["record_type"] == "RunRecord"
        assert record["main_cycles"] > 0
        assert record["segments_checked"] > 0
        assert not record["detected"]

    def test_baseline_vs_detection_slowdown(self, cfg):
        base = execute_job(JobSpec("baseline", "stream", "small", cfg))
        det = execute_job(JobSpec("detection", "stream", "small", cfg))
        assert det["main_cycles"] >= base["cycles"]


class TestEngine:
    def test_memoises_within_process(self, cfg):
        engine = CampaignEngine(workers=1)
        spec = JobSpec("detection", "stream", "small", cfg)
        first = engine.run([spec])
        second = engine.run([spec])
        assert first.executed == 1 and second.executed == 0
        assert second.cached == 1
        assert first.records == second.records

    def test_deduplicates_submission(self, cfg):
        engine = CampaignEngine(workers=1)
        spec = JobSpec("baseline", "stream", "small", cfg)
        result = engine.run([spec, spec, spec])
        assert result.executed == 1
        # duplicate slots count as cached: the summary always sums up
        assert result.cached == 2
        assert result.executed + result.cached == len(result)
        assert len(result.records) == 3
        assert result.records[0] == result.records[2]

    def test_campaign_determinism_across_workers_and_cache(self, cfg, tmp_path):
        """The ISSUE's determinism contract: 1 worker, N workers, and a
        warm on-disk cache must produce byte-identical result records."""
        grid = fault_grid(["stream"], trials=8, scale="small", seed=1)

        serial = CampaignEngine(workers=1).run(grid)
        parallel = CampaignEngine(workers=3).run(grid)
        assert serial.records_json() == parallel.records_json()
        assert serial.executed == parallel.executed == len(grid)

        cold = CampaignEngine(workers=2, cache_dir=tmp_path).run(grid)
        assert cold.records_json() == serial.records_json()
        warm_engine = CampaignEngine(workers=2, cache_dir=tmp_path)
        warm = warm_engine.run(grid)
        assert warm.executed == 0
        assert warm.cached == len(grid)
        assert warm.records_json() == serial.records_json()

    def test_cache_persists_across_engines(self, cfg, tmp_path):
        spec = JobSpec("detection", "bitcount", "small", cfg)
        a = CampaignEngine(workers=1, cache_dir=tmp_path).run([spec])
        b = CampaignEngine(workers=1, cache_dir=tmp_path).run([spec])
        assert a.executed == 1 and b.executed == 0
        assert a.records == b.records

    def test_fault_jobs_classify(self, cfg):
        grid = fault_grid(["stream"], trials=6, scale="small", seed=0)
        records = CampaignEngine(workers=1).run(grid).typed_records()
        assert len(records) == 6
        for record in records:
            assert record.outcome in (
                "not_activated", "masked", "detected", "escaped")
            # the paper's coverage argument: nothing escapes
            assert record.outcome != "escaped"
            if record.outcome == "detected":
                assert record.detect_latency_us is not None
                assert record.first_error_segment is not None
