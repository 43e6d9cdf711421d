"""Command-line interface: ``python -m repro <command>``.

Commands:

``figures [NAME ...]``
    Regenerate paper tables/figures (default: all).  Names: table1,
    table2, fig1, fig7, fig8, fig9, fig10, fig11, fig12, fig13, area,
    power.  ``--workers``/``--cache-dir`` parallelise and cache the
    underlying runs through the campaign engine.
``campaign [--kind baseline|detection|fault|fault-batch|recovery]
[--scheme NAME] [--benchmark NAMES] [--trials N] [--batch-size N]
[--workers N] [--cache-dir DIR] [--shard K/N] [--manifest DIR] [--json]``
    Run a campaign grid through the parallel engine under any registered
    protection scheme (``unprotected``, ``lockstep``, ``rmt``,
    ``detection``).  Identical grids are incremental: a warm cache
    directory replays every job with zero re-executions.  With
    ``--manifest DIR`` the grid is materialised as an on-disk manifest
    and driven by work-stealing workers instead of static sharding —
    other hosts can join the same run with ``campaign-worker``.
``campaign-worker --manifest DIR [--lease-ttl S] [--batch N]
[--max-attempts N] [--retry-failed]``
    Join an existing manifest as one work-stealing worker: lease pending
    jobs, execute them, write results into the shared cache, exit when
    nothing is leasable.  Safe to run any number of these concurrently.
    ``--max-attempts N`` re-leases failed jobs automatically until their
    failure envelope records N attempts (default 1: manual retry only).
``campaign-status --manifest DIR [--json] [--watch SECONDS]``
    Progress of a manifest campaign: per-state counts, per-scheme and
    per-kind progress, failure summaries.  ``--watch`` refreshes the
    (one-pass) summary periodically until the campaign settles.
``serve --manifest-root DIR [--cache-dir DIR] [--host H] [--port N]
[--queue-limit N] [--drain-workers N] [--lease-ttl S]``
    Run the resident campaign service: an HTTP control plane over the
    manifest layer.  ``POST /campaigns`` submits declarative grids,
    ``GET /campaigns/{id}/status`` and ``/events`` report progress,
    ``GET /records/{key}`` serves content-addressed result envelopes
    with ETags, and ``POST /campaigns/{id}/workers`` advertises the
    manifest path so external ``campaign-worker`` processes can attach.
``bench NAME [--scale small|default]``
    Run one Table II benchmark under detection and print its summary.
``list [--schemes]``
    List available benchmarks, or the registered protection schemes and
    their capability flags.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import figures as fig_mod
from repro.harness.campaign import JOB_KINDS
from repro.harness.experiment import ExperimentRunner
from repro.schemes import scheme_names

FIGURE_COMMANDS = {
    "table1": lambda runner: fig_mod.table1(),
    "table2": lambda runner: fig_mod.table2(),
    "fig1": fig_mod.fig1_comparison,
    "fig7": fig_mod.fig7,
    "fig8": fig_mod.fig8,
    "fig9": fig_mod.fig9,
    "fig10": fig_mod.fig10,
    "fig11": fig_mod.fig11,
    "fig12": fig_mod.fig12,
    "fig13": fig_mod.fig13,
    "area": lambda runner: fig_mod.sec6b_area(),
    "power": lambda runner: fig_mod.sec6c_power(),
}


def cmd_figures(args: argparse.Namespace) -> int:
    names = args.names or list(FIGURE_COMMANDS)
    unknown = [n for n in names if n not in FIGURE_COMMANDS]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(FIGURE_COMMANDS)}", file=sys.stderr)
        return 2
    runner = ExperimentRunner(scale=args.scale, workers=args.workers,
                              cache_dir=args.cache_dir)
    for name in names:
        text, _data = FIGURE_COMMANDS[name](runner)
        print(text)
        print()
    return 0


def _parse_shard(text: str) -> tuple[int, int]:
    """``K/N`` → (K, N); K counts from 0."""
    try:
        index_str, count_str = text.split("/", 1)
        index, count = int(index_str), int(count_str)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like K/N (e.g. 0/4), got {text!r}")
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard index must satisfy 0 <= K < N, got {text!r}")
    return index, count


def _build_grid(args: argparse.Namespace, names: list[str]):
    """The campaign grid named by the CLI arguments.

    Delegates to the service's wire-level constructor so a grid named
    on the command line and the same grid submitted as JSON to a
    running ``repro serve`` contain identical jobs with identical cache
    keys — one constructor, two transports."""
    from repro.service.wire import build_grid

    grid, _meta = build_grid({
        "kind": args.kind, "scheme": args.scheme, "scale": args.scale,
        "benchmarks": names, "trials": args.trials, "seed": args.seed,
        "batch_size": args.batch_size,
    })
    return grid


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.common.records import canonical_json
    from repro.harness.campaign import CampaignEngine
    from repro.harness.orchestrator import (
        manifest_status, run_campaign, summarize_result)
    from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS

    names = (list(BENCHMARK_ORDER) if args.benchmark == "all"
             else args.benchmark.split(","))
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.manifest is not None and args.shard is not None:
        print("--shard is the static fan-out path; a manifest distributes "
              "work by leases instead (drop one of the two)",
              file=sys.stderr)
        return 2
    if args.manifest is not None and args.cache_dir is not None:
        print("a manifest campaign always uses <manifest>/cache as its "
              "shared result store; --cache-dir would be silently ignored "
              "(drop one of the two)", file=sys.stderr)
        return 2
    if args.materialize_only and args.manifest is None:
        print("--materialize-only needs --manifest DIR (there is nothing "
              "to materialise otherwise)", file=sys.stderr)
        return 2

    # install the shared golden-trace store before grid construction:
    # fault/recovery grids need each benchmark's clean trace length, so a
    # warm store makes even grid building skip functional executions
    from pathlib import Path
    from repro.harness.campaign import TRACE_STORE_DIRNAME
    from repro.workloads.suite import configure_trace_store
    if args.manifest is not None:
        configure_trace_store(Path(args.manifest) / TRACE_STORE_DIRNAME)
    elif args.cache_dir is not None:
        configure_trace_store(Path(args.cache_dir) / TRACE_STORE_DIRNAME)

    try:
        grid = _build_grid(args, names)
    except ValueError as error:
        print(f"cannot build {args.kind} grid: {error}", file=sys.stderr)
        return 2

    status = None
    if args.manifest is not None:
        from repro.harness.manifest import CampaignManifest, ManifestError
        try:
            manifest = CampaignManifest.create(
                args.manifest, grid, kind=args.kind, scheme=args.scheme,
                scale=args.scale, benchmarks=names)
        except ManifestError as error:
            print(str(error), file=sys.stderr)
            return 2
        with manifest:
            if args.materialize_only:
                status = manifest_status(manifest)
                if args.json:
                    print(canonical_json(status))
                else:
                    print(f"manifest {status['campaign_id'][:12]}… "
                          f"materialised at {args.manifest}: "
                          f"{status['jobs']} unique jobs "
                          f"({status['states']['done']} already done) — "
                          f"start workers with: python -m repro "
                          f"campaign-worker --manifest {args.manifest}")
                return 0
            result, stats = run_campaign(
                manifest, processes=args.workers, lease_ttl=args.lease_ttl)
            status = manifest_status(manifest)
        # worker-side progress (parent + children aggregated): the merge
        # pass itself is a cache replay and executes nothing
        status["executed_this_run"] = stats.executed
    else:
        if args.shard is not None:
            index, count = args.shard
            grid = grid.shard(index, count)
        with CampaignEngine(workers=args.workers,
                            cache_dir=args.cache_dir) as engine:
            result = engine.run(grid)

    # one aggregation pass feeds the JSON and human paths alike
    aggregated = summarize_result(args.kind, result, names)
    summary = {"kind": args.kind, "scheme": args.scheme,
               **aggregated.summary}
    escaped = aggregated.escaped
    failed = len(status["failures"]) if status is not None else 0

    if args.json:
        payload = {"summary": summary, "records": list(result.records)}
        if status is not None:
            payload["manifest"] = status
        print(canonical_json(payload))
        # same contract as the human-readable path: escapes are failures
        return 1 if escaped or failed else 0

    if status is not None:
        print(f"{args.kind} campaign [{args.scheme}] over "
              f"{', '.join(names)} ({args.scale}): {len(result)} jobs, "
              f"{status['executed_this_run']} executed by workers this run, "
              f"{status['states']['done']} of {status['jobs']} unique done")
        print(f"  manifest: {status['campaign_id'][:12]}… "
              f"({status['states']['failed']} failed, "
              f"{status['states']['pending']} pending)")
    else:
        print(f"{args.kind} campaign [{args.scheme}] over "
              f"{', '.join(names)} ({args.scale}): {len(result)} jobs, "
              f"{result.executed} executed, {result.cached} from cache")
    if args.kind in ("baseline", "detection"):
        if summary["mean_slowdown"] is not None:
            print(f"  mean slowdown:          "
                  f"{summary['mean_slowdown']:.4f}")
        if summary["mean_detection_latency_ns"] is not None:
            print(f"  mean detection latency: "
                  f"{summary['mean_detection_latency_ns']:.0f} ns")
        return 1 if failed else 0
    print(f"  activated: {summary['activated']}  "
          f"detected: {summary['detected']} "
          f"({100 * summary['detected'] / max(1, summary['activated']):.1f}% "
          f"of activated)")
    for outcome, count in sorted(summary["outcomes"].items()):
        print(f"  {outcome:<14} {count}")
    if summary["mean_detect_latency_us"] is not None:
        print(f"  mean detection latency: "
              f"{summary['mean_detect_latency_us']:.2f} us")
    if escaped:
        print(f"WARNING: {escaped} fault(s) escaped detection (SDC)!")
    return 1 if escaped or failed else 0


def cmd_campaign_worker(args: argparse.Namespace) -> int:
    from repro.common.records import canonical_json
    from repro.harness.manifest import CampaignManifest, ManifestError
    from repro.harness.orchestrator import CampaignWorker

    try:
        manifest = CampaignManifest.load(args.manifest)
    except ManifestError as error:
        print(str(error), file=sys.stderr)
        return 2
    with manifest:
        if args.retry_failed:
            cleared = manifest.clear_failures()
            if cleared and not args.json:
                print(f"re-queued {cleared} failed job(s)")
        worker = CampaignWorker(manifest, worker_id=args.worker_id,
                                lease_ttl=args.lease_ttl,
                                batch_size=args.batch,
                                max_attempts=args.max_attempts)
        stats = worker.run(max_jobs=args.max_jobs)
    if args.json:
        print(canonical_json(stats.as_dict()))
    else:
        print(f"worker {stats.worker}: {stats.executed} executed, "
              f"{stats.skipped} already done, {stats.failed} failed "
              f"({stats.batches} lease batches)")
    return 1 if stats.failed else 0


def _print_status(status: dict) -> None:
    states = status["states"]
    print(f"campaign {status['campaign_id'][:12]}… "
          f"[{status['kind']}/{status['scheme']}] "
          f"over {', '.join(status['benchmarks'])} ({status['scale']})")
    print(f"  jobs: {status['jobs']} unique ({status['slots']} slots)  "
          f"done {states['done']}  pending {states['pending']}  "
          f"leased {states['leased']}  failed {states['failed']}")
    for axis, groups in (("scheme", status["by_scheme"]),
                         ("kind", status["by_kind"])):
        for label, group in sorted(groups.items()):
            print(f"  {axis} {label:<12} {group['done']}/{group['jobs']} "
                  f"done" + (f", {group['failed']} failed"
                             if group["failed"] else ""))
    for failure in status["failures"]:
        print(f"  FAILED {failure['key'][:12]}… "
              f"(worker {failure['worker']}, attempt {failure['attempt']}): "
              f"{failure['error']}")
    print("complete" if status["complete"] else "in progress")


def cmd_campaign_status(args: argparse.Namespace) -> int:
    import time

    from repro.common.records import canonical_json
    from repro.harness.manifest import CampaignManifest, ManifestError
    from repro.harness.orchestrator import manifest_status

    if args.watch is not None and args.watch <= 0:
        print("--watch needs a positive number of seconds",
              file=sys.stderr)
        return 2
    try:
        manifest = CampaignManifest.load(args.manifest)
    except ManifestError as error:
        print(str(error), file=sys.stderr)
        return 2
    with manifest:
        while True:
            status = manifest_status(manifest)
            if args.json:
                print(canonical_json(status), flush=True)
            else:
                _print_status(status)
            # settled: complete, or nothing left that could still make
            # progress (only failures remain) — watching further would spin
            settled = status["complete"] or (
                not status["states"]["pending"]
                and not status["states"]["leased"])
            if args.watch is None or settled:
                return 1 if status["failures"] else 0
            if not args.json:
                print(f"-- refreshing every {args.watch:g}s "
                      f"(ctrl-c to stop) --", flush=True)
            time.sleep(args.watch)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import CampaignService

    service = CampaignService(args.manifest_root,
                              cache_dir=args.cache_dir,
                              queue_limit=args.queue_limit,
                              drain_workers=args.drain_workers,
                              lease_ttl=args.lease_ttl)
    try:
        asyncio.run(service.run(host=args.host, port=args.port))
    except KeyboardInterrupt:
        print("repro serve: shut down", file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(scale=args.scale)
    summary = runner.summary(args.name)
    report = runner.detection(args.name).report
    print(f"benchmark: {args.name} ({args.scale})")
    print(f"  slowdown:         {summary.slowdown:.4f}")
    print(f"  mean delay:       {summary.mean_delay_ns:.0f} ns")
    print(f"  max delay:        {summary.max_delay_ns:.0f} ns")
    print(f"  segments checked: {report.segments_checked}")
    closes = {k: v for k, v in report.closes_by_reason.items() if v}
    print(f"  closes:           {closes}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "schemes", False):
        from repro.schemes import iter_schemes
        print(f"{'scheme':<13}{'detects':>9}{'hard faults':>13}"
              f"{'recovery':>10}  description")
        for scheme in iter_schemes():
            print(f"{scheme.name:<13}"
                  f"{'yes' if scheme.detects_faults else 'no':>9}"
                  f"{'yes' if scheme.covers_hard_faults else 'no':>13}"
                  f"{'yes' if scheme.supports_recovery else 'no':>10}"
                  f"  {scheme.description}")
        return 0
    from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS
    for name in BENCHMARK_ORDER:
        spec = BENCHMARKS[name]
        print(f"{name:<14} {spec.source:<8} {spec.character}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    """One-line summary per benchmark: slowdown + delay statistics."""
    from repro.workloads.suite import BENCHMARK_ORDER
    runner = ExperimentRunner(scale=args.scale, workers=args.workers,
                              cache_dir=args.cache_dir)
    runner.sweep([runner.default_cfg])   # one batch so workers overlap
    print(f"{'benchmark':<14}{'slowdown':>10}{'mean delay':>12}"
          f"{'max delay':>12}{'segments':>10}")
    for name in BENCHMARK_ORDER:
        summary = runner.summary(name)
        report = runner.detection(name).report
        print(f"{name:<14}{summary.slowdown:>10.4f}"
              f"{summary.mean_delay_ns:>10.0f}ns"
              f"{summary.max_delay_ns:>10.0f}ns"
              f"{report.segments_checked:>10}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Parallel Error Detection Using "
                    "Heterogeneous Cores' (DSN 2018)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="regenerate paper tables/figures")
    p_fig.add_argument("names", nargs="*",
                       help=f"which ({', '.join(FIGURE_COMMANDS)})")
    p_fig.add_argument("--scale", default="small",
                       choices=["small", "default"])
    p_fig.add_argument("--workers", type=int, default=1,
                       help="worker processes for the underlying runs")
    p_fig.add_argument("--cache-dir", default=None,
                       help="on-disk run cache (incremental regeneration)")
    p_fig.set_defaults(func=cmd_figures)

    p_camp = sub.add_parser(
        "campaign", help="fault-injection / recovery campaign grid")
    p_camp.add_argument("--benchmark", default="bodytrack",
                        help="comma-separated benchmark names, or 'all'")
    p_camp.add_argument("--kind", default="fault",
                        choices=list(JOB_KINDS),
                        help="baseline/detection = fault-free timing; "
                             "fault = coverage; fault-batch = coverage "
                             "with whole grid cells per job; "
                             "recovery = rollback")
    p_camp.add_argument("--batch-size", type=int, default=50,
                        help="faults per fault-batch job")
    p_camp.add_argument("--scheme", default="detection",
                        choices=list(scheme_names()),
                        help="protection scheme to run the campaign under")
    p_camp.add_argument("--trials", type=int, default=30,
                        help="jobs per benchmark (fault sites cycle)")
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument("--scale", default="small",
                        choices=["small", "default"])
    p_camp.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = serial, in-process)")
    p_camp.add_argument("--cache-dir", default=None,
                        help="content-addressed on-disk result cache")
    p_camp.add_argument("--shard", type=_parse_shard, default=None,
                        metavar="K/N",
                        help="run only round-robin shard K of N "
                             "(static fan-out; superseded by --manifest)")
    p_camp.add_argument("--manifest", default=None, metavar="DIR",
                        help="materialise the grid as an on-disk manifest "
                             "and run it with work-stealing workers "
                             "(resumable; other hosts join with "
                             "campaign-worker)")
    p_camp.add_argument("--lease-ttl", type=float, default=300.0,
                        help="seconds before a crashed worker's leases "
                             "return to the pending pool")
    p_camp.add_argument("--materialize-only", action="store_true",
                        help="with --manifest: write the manifest and "
                             "exit without executing (workers join it "
                             "separately)")
    p_camp.add_argument("--json", action="store_true",
                        help="emit canonical JSON (summary + records)")
    p_camp.set_defaults(func=cmd_campaign)

    p_worker = sub.add_parser(
        "campaign-worker",
        help="join a manifest campaign as one work-stealing worker")
    p_worker.add_argument("--manifest", required=True, metavar="DIR")
    p_worker.add_argument("--lease-ttl", type=float, default=300.0,
                          help="seconds before this worker's leases expire")
    p_worker.add_argument("--batch", type=int, default=8,
                          help="jobs leased per work-stealing scan")
    p_worker.add_argument("--worker-id", default=None,
                          help="stable identity in lease/failure envelopes "
                               "(default: host-pid)")
    p_worker.add_argument("--max-jobs", type=int, default=None,
                          help="stop after claiming this many jobs")
    p_worker.add_argument("--max-attempts", type=int, default=1,
                          help="automatically re-lease failed jobs until "
                               "they have failed this many times (1 = "
                               "never retry automatically; failures carry "
                               "their attempt count)")
    p_worker.add_argument("--retry-failed", action="store_true",
                          help="re-queue previously failed jobs first "
                               "(manual, unbounded counterpart of "
                               "--max-attempts)")
    p_worker.add_argument("--json", action="store_true",
                          help="emit worker stats as canonical JSON")
    p_worker.set_defaults(func=cmd_campaign_worker)

    p_status = sub.add_parser(
        "campaign-status", help="progress of a manifest campaign")
    p_status.add_argument("--manifest", required=True, metavar="DIR")
    p_status.add_argument("--json", action="store_true",
                          help="emit the status payload as canonical JSON")
    p_status.add_argument("--watch", type=float, default=None,
                          metavar="SECONDS",
                          help="refresh the summary every SECONDS until "
                               "the campaign settles (complete, or only "
                               "failures left)")
    p_status.set_defaults(func=cmd_campaign_status)

    p_serve = sub.add_parser(
        "serve", help="resident campaign service (HTTP control plane)")
    p_serve.add_argument("--manifest-root", required=True, metavar="DIR",
                         help="directory holding one subdirectory (an "
                              "ordinary campaign manifest) per submitted "
                              "campaign")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="extra read-only record cache served by "
                              "GET /records (e.g. from pre-service runs)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="bounded admission queue: submissions over "
                              "this many pending campaigns get HTTP 429")
    p_serve.add_argument("--drain-workers", type=int, default=1,
                         help="in-service worker threads draining the "
                              "current campaign (0 = control plane only; "
                              "attach external campaign-worker processes)")
    p_serve.add_argument("--lease-ttl", type=float, default=300.0,
                         help="lease TTL for the in-service workers")
    p_serve.set_defaults(func=cmd_serve)

    p_bench = sub.add_parser("bench", help="run one benchmark")
    p_bench.add_argument("name")
    p_bench.add_argument("--scale", default="small",
                         choices=["small", "default"])
    p_bench.set_defaults(func=cmd_bench)

    p_list = sub.add_parser("list", help="list benchmarks (or schemes)")
    p_list.add_argument("--schemes", action="store_true",
                        help="list registered protection schemes with "
                             "their capability flags")
    p_list.set_defaults(func=cmd_list)

    p_suite = sub.add_parser("suite", help="summary over all benchmarks")
    p_suite.add_argument("--scale", default="small",
                         choices=["small", "default"])
    p_suite.add_argument("--workers", type=int, default=1)
    p_suite.add_argument("--cache-dir", default=None)
    p_suite.set_defaults(func=cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
