"""Tests for the experiment runner and caching."""

import pytest

from repro.harness.campaign import CampaignEngine
from repro.harness.experiment import ExperimentRunner, bench_scale


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="small")


class TestCaching:
    def test_baseline_cached(self, runner):
        a = runner.baseline("stream")
        b = runner.baseline("stream")
        assert a is b

    def test_detection_cached_per_config(self, runner):
        cfg = runner.default_cfg
        a = runner.detection("stream", cfg)
        b = runner.detection("stream", cfg)
        assert a is b

    def test_equal_configs_share_cache(self, runner):
        a = runner.detection("stream",
                             runner.default_cfg.with_checker_freq(500.0))
        b = runner.detection("stream",
                             runner.default_cfg.with_checker_freq(500.0))
        assert a is b

    def test_different_configs_distinct(self, runner):
        a = runner.detection("stream",
                             runner.default_cfg.with_checker_freq(500.0))
        b = runner.detection("stream",
                             runner.default_cfg.with_checker_freq(250.0))
        assert a is not b


class TestSummaries:
    def test_summary_fields(self, runner):
        s = runner.summary("stream")
        assert s.benchmark == "stream"
        assert s.slowdown >= 1.0
        assert s.base_cycles > 0
        assert s.det_cycles >= s.base_cycles

    def test_sweep_shape(self, runner):
        configs = [runner.default_cfg,
                   runner.default_cfg.with_checker_freq(500.0)]
        sweep = runner.sweep(configs, benchmarks=["stream", "bitcount"])
        assert set(sweep) == {"stream", "bitcount"}
        assert all(len(rows) == 2 for rows in sweep.values())


class TestScale:
    def test_env_var_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        assert bench_scale() == "small"
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert bench_scale() == "default"


class TestDefaultRunner:
    def test_shared_across_calls(self, monkeypatch):
        import repro.harness.experiment as exp
        monkeypatch.setattr(exp, "_DEFAULT_RUNNER", None)
        assert exp.default_runner() is exp.default_runner()

    def test_invalidated_on_scale_change(self, monkeypatch):
        import repro.harness.experiment as exp
        monkeypatch.setattr(exp, "_DEFAULT_RUNNER", None)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        small = exp.default_runner()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "default")
        assert exp.default_runner() is not small

    def test_invalidated_on_default_config_change(self, monkeypatch):
        """Satellite regression: a stale shared runner must not keep
        serving runs timed under a configuration that is no longer the
        default."""
        import repro.harness.experiment as exp
        monkeypatch.setattr(exp, "_DEFAULT_RUNNER", None)
        before = exp.default_runner()
        changed = before.default_cfg.with_checker_cores(6)
        monkeypatch.setattr(exp, "default_config", lambda: changed)
        after = exp.default_runner()
        assert after is not before
        assert after.default_cfg == changed
        # and it is sticky: same config -> same runner again
        assert exp.default_runner() is after


class TestEngineIntegration:
    def test_sweep_batches_through_engine(self, runner):
        cfg = runner.default_cfg.with_checker_freq(250.0)
        sweep = runner.sweep([cfg], benchmarks=["stream"])
        # the sweep's runs landed in the engine memo: re-querying the
        # same cell executes nothing new
        result = runner.engine.run(
            [runner._detection_spec("stream", cfg)])
        assert result.executed == 0
        assert sweep["stream"][0].slowdown >= 1.0

    def test_disk_cache_shared_between_runners(self, tmp_path):
        with CampaignEngine(cache_dir=tmp_path) as engine:
            warm = ExperimentRunner(scale="small",
                                    engine=engine).summary("stream")
        with CampaignEngine(cache_dir=tmp_path) as engine:
            second = ExperimentRunner(scale="small", engine=engine)
            assert second.summary("stream") == warm
            assert engine.cache.hits > 0

    def test_detection_view_report_fields(self, runner):
        det = runner.detection("stream")
        assert det.report.segments_checked > 0
        assert sum(det.report.closes_by_reason.values()) \
            == det.report.segments_checked
        assert len(det.report.delays_ns) == det.record.entries_checked
