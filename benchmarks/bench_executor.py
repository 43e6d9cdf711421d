"""Executor microbenchmark: the perf baseline of the execution core.

Measures **committed instructions per second** for the two hot paths every
campaign job bottoms out in:

* ``execute`` — :func:`repro.isa.executor.execute_program`, the main-core
  functional run that produces the committed trace;
* ``replay`` — :class:`repro.detection.checker.SegmentChecker` replaying
  the same committed stream from its load-store-log segments (the paper's
  checker-core path; §IV-B).

Schema 2 measures each path twice — once through the block-compiled fast
path (:mod:`repro.isa.blocks`) and once with ``REPRO_BLOCK_EXEC=0``
forcing the per-instruction handlers — and reports both, plus the block
engine's dynamic coverage (fraction of committed instructions that went
through generated code) and the mean instructions committed per generated
call (the mean dynamic block length: each call commits one block).  The
block-mode and handler-mode traces are asserted byte-identical before any
figure is reported, so the numbers can never come from divergent
executions.

Beside the best-of-repeat re-run figure ``execute_ips``, each workload
reports, ungated, ``first_execute_ips``: the first block-mode run of a
freshly built program, the one that compiles its blocks and binds its
handlers, as a cold campaign pass executes each golden program once.
``mean_first_execute_ips`` is their mean.

Schema 3 adds the injected-suffix regime a fault campaign runs: per
workload, :data:`SUFFIX_FAULTS` ``RESULT`` faults at uniformly spread
seqs, each forked through
:func:`~repro.isa.executor.execute_forked` with its injector attached.
It reports ``suffix_block_coverage`` (block rows over the rows
committed after each fault's inert point) and ``mean_suffix_ips``
(those rows per second of forked execution), again only after the
block-mode and handler-mode faulty traces compare byte-identical.

Emits one machine-readable ``BENCH {...}`` JSON line so the perf
trajectory has something to hang before/after numbers off, and supports a
regression gate against a committed baseline file::

    python benchmarks/bench_executor.py                      # measure
    python benchmarks/bench_executor.py --output bench.json  # + write file
    python benchmarks/bench_executor.py \
        --check benchmarks/baselines/bench_executor.json --tolerance 0.30

The gate compares *relative* throughput: it fails (exit 1) when a gated
metric drops more than ``--tolerance`` below the baseline.  Raw ips are
machine-dependent, so the committed baseline is deliberately conservative
and the default tolerance wide (30 %); the block-vs-handler speedups are
same-process ratios and therefore much more stable than the raw numbers.
Independent of the gate, the bench itself exits 1 when block coverage,
clean or in injected suffixes, falls below :data:`MIN_BLOCK_COVERAGE`
on any measured workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from repro.detection.checker import SegmentChecker
from repro.detection.checkpoint import ArchStateTracker
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.detection.lslog import CloseReason, Segment
from repro.isa.blocks import BLOCK_EXEC_ENV, STATS
from repro.isa.executor import ForkCursor, execute_forked, execute_program
from repro.workloads.suite import build_benchmark

#: Default measurement workloads: memory-bound, compute-bound, and
#: pointer-chasing random access.
DEFAULT_WORKLOADS = ("stream", "bitcount", "randacc")

#: Instructions per hand-built log segment for the replay benchmark.
SEGMENT_INSTRUCTIONS = 200

#: Hard floor on per-workload dynamic block coverage, clean and in
#: injected suffixes: >= 80 % of committed instructions through
#: generated code.
MIN_BLOCK_COVERAGE = 0.80

#: Faults forked per workload in the injected-suffix regime.
SUFFIX_FAULTS = 24

#: Metrics the regression gate compares against the committed baseline.
GATE_METRICS = ("mean_execute_ips", "mean_replay_ips",
                "block_speedup_execute", "block_speedup_replay",
                "block_coverage", "suffix_block_coverage", "mean_suffix_ips")


@contextlib.contextmanager
def block_mode(value: str):
    """Force the block-exec kill switch to ``value`` ("1" or "0")."""
    previous = os.environ.get(BLOCK_EXEC_ENV)
    os.environ[BLOCK_EXEC_ENV] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ[BLOCK_EXEC_ENV]
        else:
            os.environ[BLOCK_EXEC_ENV] = previous


def build_segments(trace) -> list[Segment]:
    """Cut the committed trace into closed segments every
    :data:`SEGMENT_INSTRUCTIONS` commits (one pass over the columns,
    outside the timed region): views of the trace's memory columns, like
    the segments the detection system's log closes."""
    tracker = ArchStateTracker()
    segments: list[Segment] = []
    total = len(trace)
    mem_off = trace.mem_off
    start_seq = 0
    start = tracker.snapshot(trace.pcs[0] if total else trace.program.entry)
    for i in range(total):
        tracker.apply_dsts(trace.dsts[i])
        if (i - start_seq + 1) >= SEGMENT_INSTRUCTIONS or i == total - 1:
            end = tracker.snapshot(trace.next_pc_of(i))
            segments.append(Segment(
                index=len(segments), slot=0, start_seq=start_seq,
                end_seq=i + 1, start_checkpoint=start, end_checkpoint=end,
                close_reason=CloseReason.FULL, close_tick=0,
                lo=mem_off[start_seq], hi=mem_off[i + 1],
                kinds=trace.mem_kind, addrs=trace.mem_addr,
                values=trace.mem_value,
                commits=[0] * (i + 1 - start_seq)))
            start = end
            start_seq = i + 1
    return segments


def _time_execute(program, instructions: int, repeat: int) -> float:
    best = 0.0
    for _ in range(repeat):
        t0 = time.perf_counter()
        execute_program(program)
        elapsed = time.perf_counter() - t0
        best = max(best, instructions / elapsed)
    return best


def _time_replay(program, segments, instructions: int, repeat: int,
                 name: str) -> float:
    checker = SegmentChecker(program)
    best = 0.0
    for _ in range(repeat):
        t0 = time.perf_counter()
        for segment in segments:
            result = checker.check(segment)
            assert result.ok, (name, result.errors)
        elapsed = time.perf_counter() - t0
        best = max(best, instructions / elapsed)
    return best


def suffix_faults(trace_len: int) -> list[TransientFault]:
    """:data:`SUFFIX_FAULTS` ``RESULT`` faults at uniformly spread seqs,
    with assorted bits."""
    return [TransientFault(FaultSite.RESULT,
                           seq=trace_len * (2 * j + 1) // (2 * SUFFIX_FAULTS),
                           bit=(7 * j + 3) % 64)
            for j in range(SUFFIX_FAULTS)]


def _fork_suffixes(golden, faults) -> tuple[list, int, int, float]:
    """Fork every fault from ``golden`` with its injector attached;
    returns the faulty payloads and activations, the block rows and
    all rows committed after the faults' inert points, and the wall
    time.  A runaway suffix stops at four times the golden length."""
    cursor = ForkCursor(golden)
    cap = 4 * len(golden)
    outcomes = []
    block_rows = suffix_rows = 0
    elapsed = 0.0
    for fault in faults:
        injector = FaultInjector([fault])
        blocks0, rows0 = STATS.block_instrs, STATS.total_instrs
        t0 = time.perf_counter()
        faulty = execute_forked(golden, injector, max_instructions=cap,
                                state_source=cursor.state)
        elapsed += time.perf_counter() - t0
        # the injector's own row commits before its inert point (a fault
        # that never fires hands back ``golden``, whose ``fork_seq`` is
        # not this fork's)
        injected = (min(len(faulty), fault.seq + 1)
                    - injector.fork_seq(len(golden)))
        block_rows += STATS.block_instrs - blocks0
        suffix_rows += STATS.total_instrs - rows0 - injected
        outcomes.append((faulty.to_payload(), injector.activations))
    return outcomes, block_rows, suffix_rows, elapsed


def bench_suffixes(name: str, golden, repeat: int) -> dict:
    """The injected-suffix regime on one workload: block coverage and
    best-of-``repeat`` rows/second after the faults' inert points."""
    faults = suffix_faults(len(golden))
    with block_mode("0"):
        reference, _blocks, _rows, _elapsed = _fork_suffixes(golden, faults)
    best = 0.0
    with block_mode("1"):
        for _ in range(repeat):
            outcomes, block_rows, rows, elapsed = _fork_suffixes(golden,
                                                                 faults)
            assert outcomes == reference, (
                f"{name}: block-mode faulty traces diverge from "
                f"handler-mode ones")
            best = max(best, rows / elapsed)
    return {
        "suffix_rows": rows,
        "suffix_block_coverage": round(block_rows / rows if rows else 0.0,
                                       4),
        "suffix_ips": round(best, 1),
    }


def bench_workload(name: str, scale: str, repeat: int) -> dict:
    """Best-of-``repeat`` instructions/second for both paths on ``name``,
    in both block and handler modes, plus block-coverage counters."""
    program = build_benchmark(name, scale)

    with block_mode("1"):
        # the fresh program's first run compiles its block table
        t0 = time.perf_counter()
        block_trace = execute_program(program)
        first_elapsed = time.perf_counter() - t0
    with block_mode("0"):
        trace = execute_program(program)   # handler-mode reference trace
    instructions = len(trace)
    assert block_trace.to_payload() == trace.to_payload(), (
        f"{name}: block-mode trace diverges from handler-mode trace")

    segments = build_segments(trace)

    with block_mode("1"):
        STATS.reset()
        execute_ips = _time_execute(program, instructions, repeat)
        coverage = STATS.coverage()
        mean_commit = STATS.mean_block_len()
        replay_ips = _time_replay(program, segments, instructions, repeat,
                                  name)
    with block_mode("0"):
        execute_handler_ips = _time_execute(program, instructions, repeat)
        replay_handler_ips = _time_replay(program, segments, instructions,
                                          repeat, name)

    return {
        "instructions": instructions,
        "execute_ips": round(execute_ips, 1),
        "first_execute_ips": round(instructions / first_elapsed, 1),
        "execute_handler_ips": round(execute_handler_ips, 1),
        "replay_ips": round(replay_ips, 1),
        "replay_handler_ips": round(replay_handler_ips, 1),
        "block_coverage": round(coverage, 4),
        "mean_block_commit": round(mean_commit, 2),
        **bench_suffixes(name, trace, repeat),
    }


def run(workloads: list[str], scale: str, repeat: int) -> dict:
    results = {name: bench_workload(name, scale, repeat)
               for name in workloads}
    n = len(results)

    def mean(key: str) -> float:
        return sum(r[key] for r in results.values()) / n

    mean_execute = mean("execute_ips")
    mean_replay = mean("replay_ips")
    mean_execute_handler = mean("execute_handler_ips")
    mean_replay_handler = mean("replay_handler_ips")
    return {
        "bench": "executor",
        "schema": 3,
        "scale": scale,
        "repeat": repeat,
        "workloads": results,
        "mean_execute_ips": round(mean_execute, 1),
        "mean_first_execute_ips": round(mean("first_execute_ips"), 1),
        "mean_replay_ips": round(mean_replay, 1),
        "mean_execute_handler_ips": round(mean_execute_handler, 1),
        "mean_replay_handler_ips": round(mean_replay_handler, 1),
        "block_speedup_execute": round(mean_execute / mean_execute_handler,
                                       3),
        "block_speedup_replay": round(mean_replay / mean_replay_handler, 3),
        # gate on the *worst* workload: the acceptance bar is per-workload
        "block_coverage": round(min(r["block_coverage"]
                                    for r in results.values()), 4),
        "mean_block_commit": round(mean("mean_block_commit"), 2),
        "suffix_block_coverage": round(min(r["suffix_block_coverage"]
                                           for r in results.values()), 4),
        "mean_suffix_ips": round(mean("suffix_ips"), 1),
    }


def check_against(payload: dict, baseline_path: str, tolerance: float) -> int:
    """Exit status of the regression gate (0 ok, 1 regressed, 2 when the
    baseline itself is missing/unusable — see ``benchmarks/gate.py``)."""
    import importlib.util
    from pathlib import Path

    gate_path = Path(__file__).resolve().with_name("gate.py")
    spec = importlib.util.spec_from_file_location("bench_gate", gate_path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate.check_metrics(payload, baseline_path, tolerance,
                              GATE_METRICS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated suite workload names")
    parser.add_argument("--scale", default="small",
                        choices=["small", "default"])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per path (best is kept)")
    parser.add_argument("--output", default=None,
                        help="also write the BENCH payload to this file")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a committed baseline JSON and "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop vs the baseline")
    args = parser.parse_args(argv)

    payload = run(args.workloads.split(","), args.scale, args.repeat)
    print("BENCH " + json.dumps(payload, sort_keys=True))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    status = 0
    for metric in ("block_coverage", "suffix_block_coverage"):
        if payload[metric] < MIN_BLOCK_COVERAGE:
            print(f"bench executor: {metric} {payload[metric]} below the "
                  f"{MIN_BLOCK_COVERAGE} floor", file=sys.stderr)
            status = 1
    if args.check:
        status = max(status, check_against(payload, args.check,
                                           args.tolerance))
    return status


if __name__ == "__main__":
    sys.exit(main())
