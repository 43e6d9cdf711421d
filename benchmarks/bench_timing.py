"""Timing-layer microbenchmark: rows/s of the cycle-level timing models.

Measures, over the nine small suite workloads:

* ``bare`` — :meth:`OoOCore.run_rows` with no hook (the golden timing
  run);
* ``hooked`` — :meth:`OoOCore.run_rows` under
  :class:`ParallelErrorDetection` with the default configuration, hook
  included (segment closes, checkpoints, checker replay and checker
  timing all run inside it), closed by ``finish_run``;
* ``inorder`` — :meth:`InOrderCoreModel.run_segment` replaying, in call
  order on fresh checker models, every segment the hooked run timed.

Before any timing, each of these runs is checked against the pins of
``tests/core/timing_pins.py`` (bare and hooked :class:`CoreResult` plus
the full detection report, and every :class:`SegmentTiming`), so the
numbers can never come from a run whose output changed.

Emits one ``BENCH {...}`` JSON line and supports the shared regression
gate (``benchmarks/gate.py``)::

    python benchmarks/bench_timing.py                      # measure
    python benchmarks/bench_timing.py --output bench.json  # + write file
    python benchmarks/bench_timing.py \\
        --check benchmarks/baselines/bench_timing.json --tolerance 0.30

Raw rows/s depend on the machine, so the committed baseline sits well
under the numbers measured when it was set.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.common.config import default_config  # noqa: E402
from repro.core.inorder_core import InOrderCoreModel  # noqa: E402
from repro.core.ooo_core import OoOCore  # noqa: E402
from repro.detection.system import ParallelErrorDetection  # noqa: E402
from repro.isa.meta import program_meta  # noqa: E402
from repro.memory.hierarchy import CheckerICaches  # noqa: E402
from repro.workloads.suite import BENCHMARKS, benchmark_trace  # noqa: E402

from tests.core.timing_pins import (  # noqa: E402
    PINS,
    SegmentRecorder,
    bare_digest,
    hooked_digest,
    segments_digest,
)

#: Metrics the regression gate compares against the committed baseline.
GATE_METRICS = ("mean_bare_rows_per_s", "mean_hooked_rows_per_s",
                "mean_inorder_rows_per_s")


def time_bare(trace, config):
    core = OoOCore(config)
    state = core.start_state()
    t0 = time.perf_counter()
    core.run_rows(trace, None, state, len(trace))
    elapsed = time.perf_counter() - t0
    return elapsed, core.finish_run(trace, None, state)


def time_hooked(trace, config):
    core = OoOCore(config)
    hook = ParallelErrorDetection(config, trace.program)
    state = core.start_state()
    t0 = time.perf_counter()
    hook.begin(trace)
    core.run_rows(trace, hook, state, len(trace))
    result = core.finish_run(trace, hook, state)
    elapsed = time.perf_counter() - t0
    return elapsed, result, hook.report


def time_inorder(calls, program, config):
    """Replay the recorded ``run_segment`` calls on fresh checker models
    (their I-caches start cold, as in the hooked run)."""
    icaches = CheckerICaches(config.checker)
    models = [InOrderCoreModel(config.checker, icaches, core_id)
              for core_id in range(config.checker.num_cores)]
    metas = program_meta(program)
    replayed = []
    t0 = time.perf_counter()
    for core_id, steps, start, _timing in calls:
        replayed.append((core_id, steps, start,
                         models[core_id].run_segment(steps, metas, start)))
    return time.perf_counter() - t0, replayed


def check_pin(name: str, kind: str, digest: str) -> None:
    pinned = PINS[(name, "default")][kind]
    if digest != pinned:
        raise SystemExit(f"bench timing: {name} {kind} run digest {digest} "
                         f"!= pinned {pinned}")


def bench_workload(name: str, repeat: int) -> dict:
    config = default_config()
    trace = benchmark_trace(name, "small")
    rows = len(trace)

    # the measured runs, once untimed, against the pins
    _, bare = time_bare(trace, config)
    check_pin(name, "bare", bare_digest(bare))
    with SegmentRecorder() as recorder:
        _, hooked, report = time_hooked(trace, config)
    check_pin(name, "hooked", hooked_digest(hooked, report))
    calls = recorder.calls
    check_pin(name, "segments", segments_digest(calls))
    _, replayed = time_inorder(calls, trace.program, config)
    check_pin(name, "segments", segments_digest(replayed))
    inorder_rows = sum(len(steps) for _, steps, _, _ in calls)

    bare_s = min(time_bare(trace, config)[0] for _ in range(repeat))
    hooked_s = min(time_hooked(trace, config)[0] for _ in range(repeat))
    inorder_s = min(time_inorder(calls, trace.program, config)[0]
                    for _ in range(repeat))
    return {
        "rows": rows,
        "inorder_rows": inorder_rows,
        "bare_rows_per_s": round(rows / bare_s, 1),
        "hooked_rows_per_s": round(rows / hooked_s, 1),
        "inorder_rows_per_s": round(inorder_rows / inorder_s, 1),
    }


def run(workloads: list[str], repeat: int) -> dict:
    results = {name: bench_workload(name, repeat) for name in workloads}

    def mean(key: str) -> float:
        return round(sum(r[key] for r in results.values()) / len(results), 1)

    return {
        "bench": "timing",
        "schema": 1,
        "scale": "small",
        "repeat": repeat,
        "workloads": results,
        "mean_bare_rows_per_s": mean("bare_rows_per_s"),
        "mean_hooked_rows_per_s": mean("hooked_rows_per_s"),
        "mean_inorder_rows_per_s": mean("inorder_rows_per_s"),
    }


def check_against(payload: dict, baseline_path: str, tolerance: float) -> int:
    """Exit status of the regression gate (see ``benchmarks/gate.py``)."""
    gate_path = Path(__file__).resolve().with_name("gate.py")
    spec = importlib.util.spec_from_file_location("bench_gate", gate_path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate.check_metrics(payload, baseline_path, tolerance,
                              GATE_METRICS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(BENCHMARKS),
                        help="comma-separated suite workload names")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per run (best is kept)")
    parser.add_argument("--output", default=None,
                        help="also write the BENCH payload to this file")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a committed baseline JSON and "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop vs the baseline")
    args = parser.parse_args(argv)

    payload = run(args.workloads.split(","), args.repeat)
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
