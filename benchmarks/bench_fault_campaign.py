"""Fault-campaign microbenchmark: fork-point injection throughput.

Measures **fault jobs per second** through the real campaign execution
entry point (:func:`repro.harness.campaign.execute_job`).  Every fault
runs down one path, ``ProtectionScheme.inject_batch``: a ``fault`` job
is a cell of one fault.  Three ways of running the same faults are
timed:

* ``full`` — the pre-fork-path behaviour: re-execute the whole program
  with the fault injector attached (``REPRO_FORK_INJECTION=0``);
* ``forked`` — the fork-point path, one ``fault`` job (a one-fault
  cell) per fault: reconstruct state at the fault from the golden
  trace's keyframes, splice the golden columnar prefix, and execute
  only from the fork seq;
* ``batch`` — the fork-point path amortised: the whole fault cell as a
  single ``fault-batch`` job sharing one fork cursor over one golden
  trace, so the golden columns are replayed once per cell instead of
  once per fault.

Faults are **late-trace** (drawn from the last tenth of each workload's
dynamic trace), the regime campaign grids spend most of their trials in
and where the redundant prefix work is largest.  Two schemes are
measured per workload: ``lockstep``, whose injection cost is pure
execution (the fork path's headline win), and ``detection``, the full
pipeline where the OoO timing model bounds the gain.

For the ``detection`` scheme the fork path is measured twice more:
with the **pre-fork timing splice** disabled (``REPRO_TIMING_SPLICE=0``
— every fault job re-times the whole faulty trace through the OoO
model, the pre-splice behaviour) and enabled (the golden prefix's
timing is spliced from a shared cursor, resumed at exactly the fault's
fork seq, and only the post-fork suffix is re-timed).
``splice_speedup`` is the ratio of the two, and the
``mean_detection_*`` headline metrics gate the full detection pipeline
the way ``mean_forked_fps`` gates pure execution.  With the fork path
and the splice on, a fired one-transient detection fault is executed
only until the log segment holding its row has closed, and completed
only when nothing was detected; with either switch off it runs whole.

Since schema 4 the ``detection`` cell is also measured through the
``fault-batch`` path (one job per cell, shared timing-splice cursor,
deepcopy-free snapshots) and ``mean_detection_batch_fps`` joins the
gated headline metrics.  Each timed path additionally reports a
per-stage wall-time breakdown (``exec_s`` ISA execution / ``timing_s``
OoO timing model / ``checker_s`` checker dispatch), informational only.

The benchmark is also an **identity gate**: forked and full runs of the
identical fault grid must produce byte-identical records — and for the
detection scheme, spliced and unspliced timing too, and batch against
per-job — both executed serially and through a manifest worker (lease →
execute → shared cache → collect).  Any divergence fails the run before
any number is printed.

Emits one machine-readable ``BENCH {...}`` JSON line and supports the
same regression gate as ``bench_executor``::

    python benchmarks/bench_fault_campaign.py
    python benchmarks/bench_fault_campaign.py --output bench.json
    python benchmarks/bench_fault_campaign.py \
        --check benchmarks/baselines/bench_fault_campaign.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.common.records import canonical_json
from repro.common.rng import derive
from repro.detection.faults import TransientFault
from repro.harness.campaign import CAMPAIGN_SITES, JobSpec, execute_job
from repro.harness.manifest import CampaignManifest
from repro.harness.orchestrator import CampaignWorker, collect
from repro.core.timing import TIMING_SPLICE_ENV
from repro.schemes.base import FORK_INJECTION_ENV
from repro.workloads.suite import benchmark_trace, configure_trace_store

#: Default measurement workloads: one memory-bound, one compute-bound.
DEFAULT_WORKLOADS = ("stream", "bitcount")

#: Schemes measured per workload (shared fault seeds, like real
#: cross-scheme coverage grids).
SCHEMES = ("lockstep", "detection")

#: Faults are drawn from the last ``LATE_WINDOW`` of the dynamic trace.
LATE_WINDOW = 0.1


def late_fault_jobs(benchmark: str, scale: str, trials: int,
                    scheme: str, seed: int = 0) -> list[JobSpec]:
    """``trials`` late-striking fault jobs with scheme-independent seeds
    (the same ``seed`` gives every scheme the identical fault set)."""
    clean_len = len(benchmark_trace(benchmark, scale))
    rng = derive(seed, f"bench-fault-campaign:{benchmark}")
    hi = clean_len - 10
    # clamp so short traces get *a* late window instead of an empty range
    lo = max(10, min(int(clean_len * (1.0 - LATE_WINDOW)), hi - 1))
    if lo >= hi:
        raise SystemExit(
            f"workload {benchmark!r} at scale {scale!r} commits only "
            f"{clean_len} instructions — too short for late-trace faults")
    jobs = []
    for trial in range(trials):
        site = CAMPAIGN_SITES[trial % len(CAMPAIGN_SITES)]
        fault = TransientFault(
            site,
            seq=rng.randrange(lo, hi),
            bit=rng.randrange(0, 48))
        jobs.append(JobSpec("fault", benchmark, scale, fault=fault,
                            scheme=scheme))
    return jobs


def _set_mode(forked: bool) -> None:
    os.environ[FORK_INJECTION_ENV] = "1" if forked else "0"


class _StageTimer:
    """Accumulated wall time per fault-pipeline stage.

    Purely observational: the wrapped entry points are timed and called
    through unchanged, so records and verdicts cannot notice the timer.
    ``checker_s`` nests inside ``timing_s`` (segment dispatch happens
    during the OoO commit walk), so the nested share is subtracted from
    the timing bucket — the three numbers partition the measured wall
    time instead of double-counting it.
    """

    def __init__(self) -> None:
        self.totals = {"exec_s": 0.0, "timing_s": 0.0, "checker_s": 0.0}
        self._nested_dispatch = 0.0

    def per_pass(self, repeat: int) -> dict[str, float]:
        return {name: round(value / repeat, 4)
                for name, value in self.totals.items()}

    def wrap_exec(self, func):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.totals["exec_s"] += time.perf_counter() - t0
        return wrapper

    def wrap_run_rows(self, func):
        def wrapper(*args, **kwargs):
            before = self._nested_dispatch
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                nested = self._nested_dispatch - before
                self.totals["timing_s"] += wall - nested
        return wrapper

    def wrap_dispatch(self, func):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                self.totals["checker_s"] += wall
                self._nested_dispatch += wall
        return wrapper


@contextmanager
def stage_timer():
    """Patch the stage entry points for the duration of one measurement."""
    import repro.schemes.base as schemes_base
    from repro.core.ooo_core import OoOCore
    from repro.detection.system import ParallelErrorDetection

    timer = _StageTimer()
    saved = (schemes_base.execute_forked, schemes_base.execute_program,
             OoOCore.run_rows, ParallelErrorDetection._dispatch)
    schemes_base.execute_forked = timer.wrap_exec(saved[0])
    schemes_base.execute_program = timer.wrap_exec(saved[1])
    OoOCore.run_rows = timer.wrap_run_rows(saved[2])
    ParallelErrorDetection._dispatch = timer.wrap_dispatch(saved[3])
    try:
        yield timer
    finally:
        (schemes_base.execute_forked, schemes_base.execute_program,
         OoOCore.run_rows, ParallelErrorDetection._dispatch) = saved


def time_jobs(specs: list[JobSpec], repeat: int) -> tuple[float, str]:
    """Best-of-``repeat`` wall time for executing ``specs`` serially,
    plus the canonical JSON of the records (for the identity gate)."""
    best = float("inf")
    records: list[dict] = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        records = [execute_job(spec) for spec in specs]
        best = min(best, time.perf_counter() - t0)
    return best, canonical_json(records)


def manifest_records(specs: list[JobSpec], root: Path, mode: str) -> str:
    """Drive ``specs`` through a manifest worker; canonical merged JSON."""
    manifest = CampaignManifest.create(root, specs)
    CampaignWorker(manifest, worker_id=f"bench-{mode}").run()
    return collect(manifest).records_json()


def run(workloads: list[str], scale: str, trials: int, repeat: int) -> dict:
    results: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench-fault-campaign-") as tmp:
        tmp_path = Path(tmp)
        configure_trace_store(tmp_path / "traces")
        for name in workloads:
            benchmark_trace(name, scale)  # warm store + per-process memo
            per_scheme: dict[str, dict] = {}
            for scheme in SCHEMES:
                specs = late_fault_jobs(name, scale, trials, scheme)
                _set_mode(forked=False)
                full_s, full_json = time_jobs(specs, repeat)
                _set_mode(forked=True)
                with stage_timer() as forked_timer:
                    forked_s, forked_json = time_jobs(specs, repeat)
                if full_json != forked_json:
                    raise AssertionError(
                        f"forked records diverge from full execution "
                        f"({name}/{scheme}, serial path)")
                splice = None
                if scheme == "detection":
                    # same grid, fork path, timing splice vetoed: every
                    # job re-times the whole faulty trace (the pre-splice
                    # pipeline).  Records must not notice the difference.
                    os.environ[TIMING_SPLICE_ENV] = "0"
                    nosplice_s, nosplice_json = time_jobs(specs, repeat)
                    os.environ.pop(TIMING_SPLICE_ENV, None)
                    if nosplice_json != forked_json:
                        raise AssertionError(
                            f"timing-spliced records diverge from full "
                            f"re-timing ({name}/{scheme}, serial path)")
                    splice = {
                        "nosplice_fps": round(trials / nosplice_s, 1),
                        "splice_speedup": round(nosplice_s / forked_s, 2),
                    }
                # batch path: the same fault cell as ONE fault-batch job
                # (shared fork cursor, one golden-column sweep total);
                # its nested per-fault records must be byte-identical to
                # the per-job records above
                batch_spec = JobSpec(
                    "fault-batch", name, scale,
                    faults=tuple(spec.fault for spec in specs),
                    scheme=scheme)
                with stage_timer() as batch_timer:
                    batch_s, batch_json = time_jobs([batch_spec], repeat)
                nested = json.loads(batch_json)[0]["records"]
                if canonical_json(nested) != forked_json:
                    raise AssertionError(
                        f"batch records diverge from the per-job fault "
                        f"path ({name}/{scheme}, serial path)")
                per_scheme[scheme] = {
                    "full_fps": round(trials / full_s, 1),
                    "forked_fps": round(trials / forked_s, 1),
                    "batch_fps": round(trials / batch_s, 1),
                    "speedup": round(full_s / forked_s, 2),
                    "batch_speedup": round(full_s / batch_s, 2),
                    "stages": forked_timer.per_pass(repeat),
                    "batch_stages": batch_timer.per_pass(repeat),
                    **(splice or {}),
                }
            results[name] = per_scheme

            # manifest-worker path: same grid (plus one batch cell), one
            # worker per mode into fresh manifest directories, merged
            # records must match the serial runs byte for byte
            mixed = [spec for scheme in SCHEMES
                     for spec in late_fault_jobs(name, scale,
                                                 max(2, trials // 2), scheme)]
            mixed.append(JobSpec(
                "fault-batch", name, scale,
                faults=tuple(spec.fault for spec in mixed
                             if spec.scheme == "lockstep"),
                scheme="lockstep"))
            _set_mode(forked=False)
            via_full = manifest_records(mixed, tmp_path / f"m-full-{name}",
                                        "full")
            _set_mode(forked=True)
            via_forked = manifest_records(mixed, tmp_path / f"m-fork-{name}",
                                          "forked")
            if via_full != via_forked:
                raise AssertionError(
                    f"forked records diverge from full execution "
                    f"({name}, manifest-worker path)")
        os.environ.pop(FORK_INJECTION_ENV, None)
        configure_trace_store(None)

    # headline numbers: the execution-bound scheme, averaged over
    # workloads, plus the full detection pipeline with the timing splice
    lockstep = [results[name]["lockstep"] for name in results]
    detection = [results[name]["detection"] for name in results]
    n = len(lockstep)
    return {
        "bench": "fault_campaign",
        "schema": 4,
        "scale": scale,
        "trials": trials,
        "repeat": repeat,
        "workloads": results,
        "identical_records": True,
        "mean_full_fps": round(sum(r["full_fps"] for r in lockstep) / n, 1),
        "mean_forked_fps": round(
            sum(r["forked_fps"] for r in lockstep) / n, 1),
        "mean_batch_fps": round(
            sum(r["batch_fps"] for r in lockstep) / n, 1),
        "mean_speedup": round(sum(r["speedup"] for r in lockstep) / n, 2),
        "mean_batch_speedup": round(
            sum(r["batch_speedup"] for r in lockstep) / n, 2),
        "mean_detection_full_fps": round(
            sum(r["full_fps"] for r in detection) / n, 1),
        "mean_detection_nosplice_fps": round(
            sum(r["nosplice_fps"] for r in detection) / n, 1),
        "mean_detection_fps": round(
            sum(r["forked_fps"] for r in detection) / n, 1),
        "mean_detection_batch_fps": round(
            sum(r["batch_fps"] for r in detection) / n, 1),
        "mean_detection_speedup": round(
            sum(r["forked_fps"] / r["full_fps"] for r in detection) / n, 2),
        "mean_detection_batch_speedup": round(
            sum(r["batch_fps"] / r["full_fps"] for r in detection) / n, 2),
        "mean_splice_speedup": round(
            sum(r["splice_speedup"] for r in detection) / n, 2),
    }


def check_against(payload: dict, baseline_path: str, tolerance: float) -> int:
    """Exit status of the regression gate (0 ok, 1 regressed, 2 when the
    baseline itself is missing/unusable — see ``benchmarks/gate.py``)."""
    import importlib.util

    gate_path = Path(__file__).resolve().with_name("gate.py")
    spec = importlib.util.spec_from_file_location("bench_gate", gate_path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate.check_metrics(
        payload, baseline_path, tolerance,
        ("mean_forked_fps", "mean_speedup", "mean_batch_fps",
         "mean_detection_fps", "mean_detection_speedup",
         "mean_detection_batch_fps"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated suite workload names")
    parser.add_argument("--scale", default="small",
                        choices=["small", "default"])
    parser.add_argument("--trials", type=int, default=12,
                        help="fault jobs per (workload, scheme) cell")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per cell (best is kept)")
    parser.add_argument("--output", default=None,
                        help="also write the BENCH payload to this file")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a committed baseline JSON and "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop vs the baseline")
    args = parser.parse_args(argv)

    payload = run(args.workloads.split(","), args.scale, args.trials,
                  args.repeat)
    print("BENCH " + json.dumps(payload, sort_keys=True))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    if args.check:
        return check_against(payload, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
