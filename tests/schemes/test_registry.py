"""Tests for the unified protection-scheme API and its registry."""

import pytest

from repro.common.config import default_config
from repro.common.records import (
    SchemeRunResult,
    record_from_dict,
    record_from_json,
    record_to_dict,
    record_to_json,
)
from repro.harness.campaign import (
    CampaignEngine,
    JobSpec,
    execute_job,
    fault_batch_grid,
    fault_grid,
    recovery_grid,
    scheme_grid,
)
from repro.schemes import (
    ProtectionScheme,
    get_scheme,
    iter_schemes,
    register_scheme,
    scheme_names,
)

ALL_SCHEMES = ("unprotected", "lockstep", "rmt", "detection")


@pytest.fixture(scope="module")
def cfg():
    return default_config()


class TestRegistry:
    def test_all_four_registered(self):
        assert scheme_names() == ALL_SCHEMES

    def test_unknown_scheme_value_error(self):
        with pytest.raises(ValueError, match="unknown scheme 'mystery'"):
            get_scheme("mystery")

    def test_unknown_scheme_in_job(self, cfg):
        spec = JobSpec("baseline", "stream", "small", cfg, scheme="bogus")
        with pytest.raises(ValueError, match="unknown scheme"):
            execute_job(spec)

    def test_unknown_scheme_in_grid(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_grid(["stream"], ["nope"])
        with pytest.raises(ValueError, match="unknown scheme"):
            fault_grid(["stream"], trials=2, scale="small", scheme="nope")
        with pytest.raises(ValueError, match="unknown scheme"):
            fault_batch_grid(["stream"], trials=2, scheme="nope")

    def test_lookup_matches_iteration(self):
        for scheme in iter_schemes():
            assert get_scheme(scheme.name) is scheme

    def test_register_requires_subclass(self):
        with pytest.raises(TypeError, match="must subclass"):
            register_scheme("rogue")(object)

    def test_duplicate_name_rejected(self):
        class Impostor(ProtectionScheme):
            def time(self, trace, config):
                raise NotImplementedError

            def classify(self, clean, config, fault, injector, faulty,
                         interrupt_seqs=()):
                raise NotImplementedError

            def overheads(self, timing, config):
                raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            register_scheme("lockstep")(Impostor)


class TestCapabilities:
    def test_capability_matrix(self):
        expected = {
            "unprotected": (False, False, False),
            "lockstep": (True, True, False),
            "rmt": (True, False, False),
            "detection": (True, True, True),
        }
        for name, (detects, hard, recovery) in expected.items():
            scheme = get_scheme(name)
            assert scheme.detects_faults is detects
            assert scheme.covers_hard_faults is hard
            assert scheme.supports_recovery is recovery

    def test_recover_gated_by_capability(self, cfg):
        for scheme in iter_schemes():
            if not scheme.supports_recovery:
                with pytest.raises(ValueError, match="does not support"):
                    scheme.recover(None, None, cfg)


class TestJobSpecScheme:
    def test_default_scheme_per_kind(self, cfg):
        assert JobSpec("baseline", "stream", "small", cfg).scheme \
            == "unprotected"
        for kind in ("detection", "fault", "recovery"):
            assert JobSpec(kind, "stream", "small", cfg).scheme == "detection"

    def test_scheme_folded_into_cache_key(self, cfg):
        keys = {JobSpec("baseline", "stream", "small", cfg, scheme=s).key()
                for s in ALL_SCHEMES}
        assert len(keys) == len(ALL_SCHEMES)

    def test_explicit_default_scheme_shares_key(self, cfg):
        implicit = JobSpec("fault", "stream", "small", cfg)
        explicit = JobSpec("fault", "stream", "small", cfg,
                           scheme="detection")
        assert implicit == explicit and implicit.key() == explicit.key()


class TestSchemeRunResults:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_record_round_trips(self, cfg, scheme):
        """Every registered scheme's timing job produces a
        SchemeRunResult that survives the dict and JSON round-trips."""
        payload = execute_job(
            JobSpec("baseline", "stream", "small", cfg, scheme=scheme))
        record = record_from_dict(payload)
        assert isinstance(record, SchemeRunResult)
        assert record.scheme == scheme
        assert record.cycles >= record.base_cycles > 0
        assert record.slowdown >= 1.0
        assert record_from_dict(record_to_dict(record)) == record
        assert record_from_json(record_to_json(record)) == record

    def test_overheads_derived_from_measured_run(self, cfg):
        """The unprotected row is computed from the run it summarises,
        not returned as constants (the old ``summarize()`` bug)."""
        from repro.schemes.base import SchemeTiming
        scheme = get_scheme("unprotected")
        timing = SchemeTiming(cycles=1100, base_cycles=1000,
                              instructions=900, system_cycles=1100,
                              detection_latency_ns=None)
        row = scheme.overheads(timing, cfg)
        assert row.slowdown == pytest.approx(1.1)
        assert row.area_overhead == 0.0 and row.energy_overhead == 0.0
        assert row.detection_latency_ns is None


class TestCrossSchemeCampaigns:
    @pytest.mark.parametrize("scheme", ["lockstep", "rmt"])
    def test_fault_campaign_produces_coverage_records(self, scheme):
        """Acceptance: lockstep/RMT fault campaigns flow through the
        same grid/engine path as the paper scheme."""
        grid = fault_grid(["stream"], trials=6, scale="small", seed=2,
                          scheme=scheme)
        records = CampaignEngine(workers=1).run(grid).typed_records()
        assert len(records) == 6
        for record in records:
            assert record.scheme == scheme
            assert record.outcome in ("not_activated", "detected")
            if record.activated:
                assert record.outcome == "detected"
                assert record.detect_latency_us is not None

    def test_same_seed_gives_identical_faults_across_schemes(self):
        grids = {s: fault_grid(["stream"], trials=6, scale="small", seed=2,
                               scheme=s)
                 for s in ("detection", "lockstep")}
        faults = {s: [job.fault for job in g] for s, g in grids.items()}
        assert faults["detection"] == faults["lockstep"]

    def test_unprotected_never_detects(self):
        grid = fault_grid(["stream"], trials=6, scale="small", seed=2,
                          scheme="unprotected")
        records = CampaignEngine(workers=1).run(grid).typed_records()
        for record in records:
            assert record.outcome in ("not_activated", "masked", "escaped")

    def test_lockstep_latency_below_detection(self):
        """The paper's Figure 1 ordering: lockstep detects in cycles,
        the parallel scheme in microseconds."""
        grid_ls = fault_grid(["stream"], trials=6, scale="small", seed=2,
                             scheme="lockstep")
        grid_det = fault_grid(["stream"], trials=6, scale="small", seed=2,
                              scheme="detection")
        engine = CampaignEngine(workers=1)

        def latencies(grid):
            return [r.detect_latency_us
                    for r in engine.run(grid).typed_records()
                    if r.detect_latency_us is not None]
        ls, det = latencies(grid_ls), latencies(grid_det)
        assert ls and det
        assert max(ls) < min(det)

    def test_recovery_grid_rejects_non_recovery_scheme(self):
        with pytest.raises(ValueError, match="does not support recovery"):
            recovery_grid(["stream"], trials=2, scale="small",
                          scheme="lockstep")


class TestDeterminismPerScheme:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_serial_parallel_warm_cache_identical(self, tmp_path, scheme):
        """The ISSUE's cache contract, per scheme: 1 worker, N workers,
        and a warm on-disk cache produce byte-identical records."""
        grid = fault_grid(["stream"], trials=4, scale="small", seed=5,
                          scheme=scheme)
        serial = CampaignEngine(workers=1).run(grid)
        parallel = CampaignEngine(workers=2).run(grid)
        assert serial.keys == parallel.keys
        assert serial.records_json() == parallel.records_json()

        with CampaignEngine(workers=2, cache_dir=tmp_path) as engine:
            cold = engine.run(grid)
        with CampaignEngine(workers=2, cache_dir=tmp_path) as engine:
            warm = engine.run(grid)
        assert warm.executed == 0 and warm.cached == len(grid)
        assert cold.records_json() == serial.records_json()
        assert warm.records_json() == serial.records_json()
        assert warm.keys == serial.keys