"""One benchmark pass in a fresh interpreter: ``run.py`` launches this.

    python3 perfbench/passes.py --workload NAME --seed N --cache DIR
        --t0 MONOTONIC [--trace] [--spans FILE] [--reference]

A pass runs one workload against the run cache and golden-trace store
under ``--cache`` (cold when the directory is empty, warm when an
earlier pass filled it) and prints one JSON object on its last stdout
line: set-up time (``--t0`` is the launcher's ``time.monotonic()`` just
before it started this interpreter) and wall time of the workload, both
also scaled to an idle host (:mod:`hostclock`), peak RSS,
job counts, the records digest and the simulated outcome counts.  The
workload's steps end at the returns of the calls in
``STEP_BOUNDARIES`` (a golden trace fetched, a job run, a cache read or
write, a faulty suffix executed, a chunk of rows timed).
``--trace`` adds the per-layer metrics of :mod:`tracing` and writes the
spans to ``--spans``; its scaled time has a single step.

``--reference`` instead re-runs a seeded sample of the cached jobs of a
coverage workload through ``execute_job`` and compares the records with
the cached ones byte for byte.  The launcher sets the fast-path kill
switches in its environment, so the sample runs on the reference path.
"""

import argparse
import collections
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.__main__ import FIGURE_COMMANDS  # noqa: E402
from repro.common.records import canonical_json  # noqa: E402
from repro.core.inorder_core import InOrderCoreModel  # noqa: E402
from repro.core.ooo_core import OoOCore  # noqa: E402
from repro.harness import campaign  # noqa: E402
from repro.harness.campaign import (  # noqa: E402
    TRACE_STORE_DIRNAME, CampaignEngine, JobSpec, RunCache, execute_job)
from repro.harness.experiment import ExperimentRunner  # noqa: E402
from repro.schemes import base as schemes_base  # noqa: E402
from repro.service.wire import build_grid  # noqa: E402
from repro.workloads.suite import configure_trace_store  # noqa: E402

READY = time.monotonic()

from hostclock import StepClock, idle_factor, speed_probe  # noqa: E402

SCALE = "small"

#: coverage workload -> campaign description (the seed is added per run)
COVERAGE = {
    "coverage-detection": {
        "kind": "fault-batch", "scheme": "detection", "benchmarks": "all",
        "trials": 60, "batch_size": 50, "scale": SCALE,
    },
    "coverage-lockstep": {
        "kind": "fault", "scheme": "lockstep", "benchmarks": "all",
        "trials": 300, "scale": SCALE,
    },
}

WORKLOADS = ("figures",) + tuple(COVERAGE)

#: faults per benchmark the reference check re-runs, per outcome class
#: (activated / not activated)
REFERENCE_PER_CLASS = 2

#: (owner, attribute) of the calls whose returns end a step of a pass:
#: a step lasts a few milliseconds, rarely more than a tenth of a second
STEP_BOUNDARIES = ((campaign, "benchmark_trace"), (campaign, "execute_job"),
                   (RunCache, "get"), (RunCache, "put"),
                   (schemes_base, "execute_forked"), (OoOCore, "run_rows"),
                   (InOrderCoreModel, "run_segment"))
#: speed probes timed right after set-up, to scale the set-up time
SETUP_PROBES = 20


class CollectingEngine(CampaignEngine):
    """The serial engine, keeping every record it hands out (by job key)
    and, when traced, putting each submission under a span."""

    def __init__(self, cache_dir: str, tracer=None) -> None:
        super().__init__(workers=1, cache_dir=cache_dir)
        self.tracer = tracer
        self.collected: dict[str, dict] = {}
        self.executed = 0

    def run(self, jobs):
        span = (self.tracer.span("harness.engine") if self.tracer
                else nullcontext())
        with span:
            result = super().run(jobs)
        self.collected.update(zip(result.keys, result.records))
        self.executed += result.executed
        return result


def description(workload: str, seed: int) -> dict:
    return dict(COVERAGE[workload], seed=seed)


def run_workload(workload: str, seed: int, cache_dir: str,
                 tracer=None) -> tuple[CollectingEngine, dict[str, str]]:
    """Run ``workload`` once; returns the engine and any figure texts."""
    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    engine = CollectingEngine(cache_dir, tracer)
    texts: dict[str, str] = {}
    if workload == "figures":
        runner = ExperimentRunner(scale=SCALE, engine=engine)
        # the figures have no random inputs: every seed runs the same
        # jobs, in the CLI's order (the order matters: the runner's memo
        # keeps the first of two value-equal configurations, and their
        # job keys can differ)
        for name in FIGURE_COMMANDS:
            with span("harness.figure"):
                texts[name], _data = FIGURE_COMMANDS[name](runner)
    else:
        # as the campaign CLI does: the store is installed before the
        # grid is built, since fault grids need golden trace lengths
        configure_trace_store(Path(cache_dir) / TRACE_STORE_DIRNAME)
        with span("harness.grid_build"):
            grid, _meta = build_grid(description(workload, seed))
        engine.run(grid)
    return engine, texts


def coverage_records(records) -> list[dict]:
    """Per-fault coverage records, batch records flattened."""
    flat = []
    for record in records:
        flat.extend(record["records"] if "records" in record else [record])
    return flat


def digest_of(collected: dict[str, dict], texts: dict[str, str]) -> str:
    """SHA-256 of the canonical JSON of all records, in job-key order
    (plus the rendered figure texts)."""
    payload = {"records": [collected[key] for key in sorted(collected)],
               "figures": texts}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def outcome_counts(workload: str, collected: dict[str, dict]) -> dict:
    if workload == "figures":
        kinds = collections.Counter(
            "baseline" if "slowdown" in record else "detection"
            for record in collected.values())
        return dict(sorted(kinds.items()))
    counts = collections.Counter(
        record["outcome"] for record in coverage_records(collected.values()))
    return {outcome: counts.get(outcome, 0) for outcome in
            ("not_activated", "detected", "masked", "escaped")}


def timed_pass(args) -> dict:
    tracer = None
    if args.trace:
        from tracing import ROOT as ROOT_SPAN, Tracer
        tracer = Tracer()
    setup_s = READY - args.t0
    setup_factor = idle_factor([speed_probe() for _ in range(SETUP_PROBES)])
    clock = StepClock()
    installed = tracer.installed() if tracer else \
        clock.installed(STEP_BOUNDARIES)
    with installed:
        root = tracer.span(ROOT_SPAN) if tracer else nullcontext()
        clock.start()
        with root:
            engine, texts = run_workload(args.workload, args.seed,
                                         args.cache, tracer)
        clock.finish()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_idle_s": setup_s * setup_factor,
        "wall_s": sum(clock.steps),
        "idle_s": clock.idle_seconds(),
        "peak_rss_mb": peak_kb / 1024.0,
        "jobs": len(engine.collected),
        "executed": engine.executed,
        "digest": digest_of(engine.collected, texts),
        "outcomes": outcome_counts(args.workload, engine.collected),
    }
    if tracer:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.dump(args.spans)
    return result


def reference_pass(args) -> dict:
    """Re-run a seeded sample of a coverage workload's cached jobs as
    single-fault jobs and compare records byte for byte."""
    grid, _meta = build_grid(description(args.workload, args.seed))
    cache = RunCache(args.cache)
    # (spec of one fault, cached record of that fault) per benchmark
    pool: dict[str, list[tuple[JobSpec, dict]]] = {}
    for spec in grid:
        cached = cache.get(spec.key())
        if cached is None:
            raise RuntimeError(f"job {spec.key()[:12]} missing from cache")
        if spec.kind == "fault-batch":
            for fault, record in zip(spec.faults, cached["records"]):
                single = JobSpec("fault", spec.benchmark, spec.scale,
                                 spec.config, fault=fault, scheme=spec.scheme,
                                 timing=spec.timing)
                pool.setdefault(spec.benchmark, []).append((single, record))
        else:
            pool.setdefault(spec.benchmark, []).append((spec, cached))
    rng = random.Random(f"perfbench-reference:{args.workload}:{args.seed}")
    sample = []
    for benchmark in sorted(pool):
        entries = pool[benchmark]
        for activated in (True, False):
            group = [e for e in entries if e[1]["activated"] == activated]
            sample.extend(rng.sample(group, min(REFERENCE_PER_CLASS,
                                               len(group))))
    mismatches = []
    for spec, expected in sample:
        got = execute_job(spec)
        if canonical_json(got) != canonical_json(expected):
            mismatches.append({"benchmark": spec.benchmark,
                               "fault": repr(spec.fault),
                               "expected": expected, "got": got})
    return {"setup_s": READY - args.t0, "checked": len(sample),
            "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = reference_pass(args) if args.reference else timed_pass(args)
    except Exception:  # the launcher counts the pass as failed
        traceback.print_exc()
        print(json.dumps({"error": traceback.format_exc().splitlines()[-1]}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
