"""Experiment runner: a figure-harness façade over the campaign engine.

The parameter sweeps of §VI-A re-time the same committed trace under many
configurations (checker frequency, log geometry, core counts).  Every run
is submitted as a :class:`~repro.harness.campaign.JobSpec` through a
:class:`~repro.harness.campaign.CampaignEngine`, which provides

* in-memory memoisation (Figure 9 and Figure 11 are two views of the
  same runs, so the second figure is free),
* optional **on-disk caching** (regenerating a figure tomorrow replays
  today's runs from the cache with zero re-executions), and
* optional **parallel execution** across a worker pool — ``sweep()``
  submits its whole grid in one batch so the engine can fan it out.

Configurations are frozen dataclasses and hash by value, so equal-valued
configs constructed independently share cache entries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.common.config import SystemConfig, default_config
from repro.common.records import RunRecord, RunSummary, SchemeRunResult, \
    record_from_dict
from repro.common.stats import Samples
from repro.detection.system import DetectionReport
from repro.harness.campaign import CampaignEngine, JobSpec
from repro.workloads.suite import BENCHMARK_ORDER

#: environment knob: REPRO_BENCH_SCALE=small shrinks every workload for
#: quick smoke runs of the benchmark harness.
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"


def bench_scale() -> str:
    """The workload scale the benchmark harness should use."""
    return os.environ.get(SCALE_ENV_VAR, "default")


@dataclass(frozen=True)
class DetectionRunView:
    """A detection run reconstituted from its campaign record.

    Mirrors the parts of :class:`repro.detection.system.DetectionRunResult`
    the harness consumes: cycle counts plus a full
    :class:`~repro.detection.system.DetectionReport` (delay samples,
    closure accounting, stall breakdown).  Fault-free timing runs carry
    no events, so ``report.events`` is always empty here.
    """

    record: RunRecord
    report: DetectionReport

    @property
    def main_cycles(self) -> int:
        return self.record.main_cycles

    @property
    def system_cycles(self) -> int:
        return self.record.system_cycles

    @classmethod
    def from_record(cls, record: RunRecord) -> "DetectionRunView":
        delays = Samples()
        delays.extend(list(record.delays_ns))
        report = DetectionReport(
            delays_ns=delays,
            segments_checked=record.segments_checked,
            entries_checked=record.entries_checked,
            closes_by_reason=dict(record.closes_by_reason),
            log_full_stall_cycles=record.log_full_stall_cycles,
            checkpoint_stall_cycles=record.checkpoint_stall_cycles,
            checkpoints_taken=record.checkpoints_taken,
            checker_busy_ticks=list(record.checker_busy_ticks),
            all_checks_done_tick=record.all_checks_done_tick,
        )
        return cls(record=record, report=report)


class ExperimentRunner:
    """Caches baselines and detection runs across figure regenerations."""

    def __init__(self, scale: str | None = None,
                 config: SystemConfig | None = None,
                 engine: CampaignEngine | None = None) -> None:
        self.scale = scale if scale is not None else bench_scale()
        self.default_cfg = config if config is not None else default_config()
        # the default engine is serial and in-memory, so holds nothing
        # that needs closing; a caller that wants workers or a disk
        # cache builds the engine and closes it
        self.engine = engine if engine is not None else CampaignEngine()
        self._baselines: dict[str, SchemeRunResult] = {}
        self._runs: dict[tuple[str, SystemConfig], DetectionRunView] = {}

    # -- job plumbing ---------------------------------------------------------

    def _baseline_spec(self, benchmark: str) -> JobSpec:
        return JobSpec("baseline", benchmark, self.scale, self.default_cfg)

    def _detection_spec(self, benchmark: str, cfg: SystemConfig) -> JobSpec:
        return JobSpec("detection", benchmark, self.scale, cfg)

    def _submit_one(self, spec: JobSpec):
        return record_from_dict(self.engine.run([spec]).records[0])

    # -- primitives -----------------------------------------------------------

    def baseline(self, benchmark: str) -> SchemeRunResult:
        """Unprotected main-core timing (cached): the ``unprotected``
        scheme's record, whose ``cycles`` is the normalisation base."""
        if benchmark not in self._baselines:
            self._baselines[benchmark] = self._submit_one(
                self._baseline_spec(benchmark))
        return self._baselines[benchmark]

    def detection(self, benchmark: str,
                  config: SystemConfig | None = None) -> DetectionRunView:
        """Detection-attached timing (cached per benchmark × config)."""
        cfg = config if config is not None else self.default_cfg
        key = (benchmark, cfg)
        if key not in self._runs:
            self._runs[key] = DetectionRunView.from_record(
                self._submit_one(self._detection_spec(benchmark, cfg)))
        return self._runs[key]

    # -- derived ---------------------------------------------------------------

    def summary(self, benchmark: str,
                config: SystemConfig | None = None) -> RunSummary:
        base = self.baseline(benchmark)
        det = self.detection(benchmark, config)
        return RunSummary(
            benchmark=benchmark,
            slowdown=det.main_cycles / base.cycles,
            mean_delay_ns=det.report.mean_delay_ns(),
            max_delay_ns=det.report.max_delay_ns(),
            base_cycles=base.cycles,
            det_cycles=det.main_cycles,
        )

    def sweep(self, configs: list[SystemConfig],
              benchmarks: list[str] | None = None,
              ) -> dict[str, list[RunSummary]]:
        """Run every benchmark under every configuration.

        The whole grid is submitted to the engine in one batch, so a
        parallel engine overlaps the cells; results come back through
        the same per-runner memo as single-cell queries.

        Returns ``{benchmark: [summary per config, in order]}``.
        """
        names = benchmarks if benchmarks is not None else list(BENCHMARK_ORDER)
        specs = [self._baseline_spec(name) for name in names
                 if name not in self._baselines]
        specs += [self._detection_spec(name, cfg)
                  for name in names for cfg in configs
                  if (name, cfg) not in self._runs]
        if specs:
            # warm the engine memo; summary() below is then pure assembly
            self.engine.run(specs)
        return {
            name: [self.summary(name, cfg) for cfg in configs]
            for name in names
        }


_DEFAULT_RUNNER: ExperimentRunner | None = None


def default_runner() -> ExperimentRunner:
    """A process-wide shared runner, so figure benchmarks share runs.

    Rebuilt whenever the requested scale *or* the default configuration
    changes — a stale runner must never keep serving runs timed under a
    configuration that is no longer the default.
    """
    global _DEFAULT_RUNNER
    scale = bench_scale()
    cfg = default_config()
    if (_DEFAULT_RUNNER is None
            or _DEFAULT_RUNNER.scale != scale
            or _DEFAULT_RUNNER.default_cfg != cfg):
        _DEFAULT_RUNNER = ExperimentRunner(scale=scale, config=cfg)
    return _DEFAULT_RUNNER
