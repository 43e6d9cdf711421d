"""Paper-campaign benchmark: figures and uniform coverage sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``expected.json``):
``coverage-detection`` and ``coverage-lockstep`` run uniform-seq
fault-coverage campaigns over the nine Table II workloads; ``figures``
regenerates every ``repro figures`` command.  ``BENCHMARK.json`` lists
the two coverage workloads only: a figures cold pass is one long,
indivisible job set, so a run holds too few of them for its median to
be steady on a shared host.  Every pass runs in a fresh interpreter
(``passes.py``) on the serial campaign engine, so no per-process memo
carries over from one pass into the next.

``--trace 0`` runs one round per ``ROUND_SECONDS`` of ``--seconds``
(at least two): a cold pass over a new cache directory, then
``WARM_PASSES`` warm passes over the filled one.  The pass count depends
on ``--seconds`` alone, so two commits measure the same passes over the
same fault sets however fast each one is.  It reports the median cold
pass, the median warm pass, the median set-up of all passes and the
median peak RSS of the cold passes.  Times are wall times scaled to an
idle host (``hostclock.py``): other tenants of a shared host slow a
pass down by up to 1.8x for minutes at a time, more than any median
over one run irons out.  The plain wall times are printed beside them.
``--trace 1`` runs one untraced cold pass, then one traced cold and one
traced warm pass, and reports the per-layer metrics.

Round ``r`` of a coverage run uses campaign seed ``(N + r) % seeds`` for
``--seed N``, where ``expected.json`` records the digests of campaign
seeds ``0 .. seeds - 1`` and of one held-out seed (``vet.py`` writes
them), so a run covers several fault sets; ``--campaign-seed`` pins
every round to one campaign seed, such as the held-out one.  The
figures have no random inputs and ignore the seed.

The records of every pass of a round must hash to one digest, equal to
the digest recorded for its campaign seed in ``expected.json``, and for
the coverage workloads a seeded sample of faults is re-run on the
reference path (every fast path off) and must reproduce its records
byte for byte.  Failed or mismatching jobs count in ``failed`` and make
``correct`` false.  The last stdout line is the JSON result.

Cache directories live under ``.perfbench/`` in the checkout and are
removed at exit; the spans of the last traced passes are kept in
``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASSES = HERE / "passes.py"
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench"

WORKLOADS = ("figures", "coverage-detection", "coverage-lockstep")
COVERAGE = WORKLOADS[1:]

#: a run holds one round per this many seconds of ``--seconds`` (a
#: coverage round takes 6-10 s on a shared 2-core host)
ROUND_SECONDS = 9
WARM_PASSES = 2
MIN_ROUNDS = 2
#: no pass may still run this long after the benchmark started
HARD_LIMIT_S = 170.0

#: the kill switch of every fast path: the reference path
REFERENCE_ENV = {"REPRO_FORK_INJECTION": "0", "REPRO_TIMING_SPLICE": "0",
                 "REPRO_BLOCK_EXEC": "0"}

#: per-layer metrics read from the traced warm pass; the rest come from
#: the traced cold pass
WARM_LAYER_METRICS = ("harness.cache_get_s", "harness.cache_hits",
                      "harness.cache_misses", "workloads.store_get_s",
                      "workloads.store_hits")


class PassFailed(Exception):
    pass


class Run:
    """One benchmark invocation: launches passes and tallies the checks."""

    def __init__(self, workload: str, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.expected = json.loads(EXPECTED.read_text())
        self.attempted = 0
        self.failed = 0
        self.jobs = 1
        self.problems: list[str] = []
        #: campaign seed -> digests its passes produced
        self.digests: dict[int, set[str]] = {}
        self.outcomes: dict = {}
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONHASHSEED"] = "0"

    def fail(self, message: str, jobs: int, attempted: bool = True) -> None:
        print(f"FAIL: {message}")
        self.problems.append(message)
        self.failed += jobs
        if attempted:
            self.attempted += jobs

    def cache_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def launch(self, seed: int, *args: str,
               env_extra: dict | None = None) -> dict:
        """Run one pass in a fresh interpreter; its parsed result line."""
        remaining = self.deadline - time.monotonic()
        if remaining < 1.0:
            raise PassFailed("out of time")
        # write back earlier passes' cache files now, not during this one
        os.sync()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(PASSES), "--workload", self.workload,
                 "--seed", str(seed), "--t0", repr(t0), *args],
                cwd=ROOT, env=dict(self.env, **(env_extra or {})),
                capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise PassFailed("timed out") from None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except ValueError:
            result = {}
        if proc.returncode != 0 or not result or "error" in result:
            sys.stderr.write(proc.stderr)
            raise PassFailed(result.get("error")
                             or f"exit status {proc.returncode}")
        return result

    def timed(self, label: str, seed: int, cache: Path,
              *extra: str) -> dict | None:
        """A cold or warm pass; None (counted as failed) if it failed."""
        try:
            result = self.launch(seed, "--cache", str(cache), *extra)
        except PassFailed as error:
            self.fail(f"{label} pass: {error}", self.jobs)
            return None
        print(f"{label} (seed {seed}): wall {result['wall_s']:.3f} s "
              f"({result['idle_s']:.3f} s idle), set-up "
              f"{result['setup_s']:.3f} s, peak RSS "
              f"{result['peak_rss_mb']:.1f} MB, {result['jobs']} jobs "
              f"({result['executed']} executed), digest "
              f"{result['digest'][:16]}, outcomes {result['outcomes']}")
        self.jobs = result["jobs"]
        self.attempted += result["jobs"]
        self.digests.setdefault(seed, set()).add(result["digest"])
        self.outcomes = result["outcomes"]
        if "warm" in label and result["executed"]:
            self.fail(f"{label} pass re-executed {result['executed']} "
                      "jobs", result["executed"], attempted=False)
        return result

    def reference(self, seed: int, cache: Path) -> None:
        """Re-run a sample of a coverage pass's faults on the reference
        path; each mismatching record is a failed job."""
        if self.workload not in COVERAGE:
            return
        try:
            result = self.launch(seed, "--cache", str(cache), "--reference",
                                 env_extra=REFERENCE_ENV)
        except PassFailed as error:
            self.fail(f"reference pass: {error}", 1)
            return
        self.attempted += result["checked"]
        print(f"reference path (seed {seed}): {result['checked']} faults "
              f"re-run, {len(result['mismatches'])} mismatches")
        for mismatch in result["mismatches"]:
            self.fail(f"reference mismatch {json.dumps(mismatch)}", 1,
                      attempted=False)

    def check_digests(self) -> None:
        """The passes of each campaign seed agree, and match the digest
        recorded for it, if any."""
        recorded = self.expected["digests"][self.workload]
        for seed, digests in sorted(self.digests.items()):
            if len(digests) > 1:
                self.fail(f"seed {seed}: passes disagree, digests "
                          f"{sorted(digests)}", self.jobs, attempted=False)
                continue
            # the figures job set is the same for every seed
            expected = recorded.get("any", recorded.get(str(seed)))
            if expected is None:
                print(f"seed {seed}: no recorded digest")
            elif digests != {expected}:
                self.fail(f"seed {seed}: digest {next(iter(digests))} "
                          f"differs from the recorded {expected}", self.jobs,
                          attempted=False)
            else:
                print(f"seed {seed}: digest {expected[:16]} matches "
                      "expected.json")


def run_untraced(run: Run, rounds: int, seed_of) -> dict:
    """``rounds`` rounds of one cold and ``WARM_PASSES`` warm passes;
    round ``r`` runs campaign seed ``seed_of(r)``."""
    colds, warms = [], []
    cache = None
    for index in range(rounds):
        cache = run.cache_dir("round")
        cold = run.timed(f"cold {index}", seed_of(index), cache)
        if cold is None:
            return {}
        colds.append(cold)
        for number in range(WARM_PASSES):
            warm = run.timed(f"warm {index}.{number}", seed_of(index), cache)
            if warm is None:
                return {}
            warms.append(warm)
    run.reference(seed_of(rounds - 1), cache)

    samples = {"setup_s": [r["setup_idle_s"] for r in colds + warms],
               "cold_s": [r["idle_s"] for r in colds],
               "warm_s": [r["idle_s"] for r in warms]}
    walls = {"setup_s": [r["setup_s"] for r in colds + warms],
             "cold_s": [r["wall_s"] for r in colds],
             "warm_s": [r["wall_s"] for r in warms]}
    for name, values in samples.items():
        quartiles = statistics.quantiles(values, n=4)
        print(f"{name}: {len(values)} passes, median "
              f"{statistics.median(values):.4f} s, quartiles "
              f"{quartiles[0]:.4f} .. {quartiles[2]:.4f} s scaled to an "
              f"idle host (wall median {statistics.median(walls[name]):.4f}"
              " s)")
    return {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "cold_s": (statistics.median(samples["cold_s"]), "s"),
        "warm_s": (statistics.median(samples["warm_s"]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in colds),
                        "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_coverage", "_per_fault")):
        return "ratio"
    return "count"


def run_traced(run: Run, seed: int) -> dict:
    """An untraced cold pass, then a traced cold and a traced warm pass
    over one cache; the per-layer metrics of the traced passes."""
    plain = run.timed("untraced cold", seed, run.cache_dir("plain"))
    shutil.rmtree(run.work / "plain")
    cache = run.cache_dir("traced")
    spans = WORK / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cold = run.timed("traced cold", seed, cache, "--trace", "--spans",
                     str(spans / f"{run.workload}-cold.json"))
    warm = run.timed("traced warm", seed, cache, "--trace", "--spans",
                     str(spans / f"{run.workload}-warm.json"))
    run.reference(seed, cache)
    if plain is None or cold is None or warm is None:
        return {}

    layers = dict(cold["layers"])
    for name in WARM_LAYER_METRICS:
        layers[name] = warm["layers"][name]
    if run.workload != "figures":
        del layers["harness.figure_self_s"]
    # self times partition the traced window; what the framing spans
    # (the pass, execute_job) keep for themselves no layer accounts for
    self_sum = sum(value for name, value in cold["layers"].items()
                   if name.endswith("_s") and name != "trace.unattributed_s")
    faults = sum(run.outcomes.values()) if run.workload in COVERAGE else 0
    layers.update({
        "schemes.faults": faults,
        "schemes.activated_ratio": (
            (faults - run.outcomes["not_activated"]) / faults
            if faults else 0.0),
        "schemes.detected": run.outcomes.get("detected", 0),
        "schemes.masked": run.outcomes.get("masked", 0),
        "schemes.escaped": run.outcomes.get("escaped", 0),
        "trace.cold_s": cold["wall_s"],
        "trace.warm_s": warm["wall_s"],
        "trace.untraced_cold_s": plain["wall_s"],
        "trace.overhead_s": cold["wall_s"] - plain["wall_s"],
        "trace.self_sum_ratio": self_sum / cold["wall_s"],
    })
    print(f"layer self times sum to {self_sum:.3f} s of {cold['wall_s']:.3f}"
          f" s traced cold ({layers['trace.self_sum_ratio']:.4f}); tracing "
          f"overhead {layers['trace.overhead_s']:+.3f} s")

    # each workload must exercise the layers it was chosen for
    if layers["trace.self_sum_ratio"] < 0.95:
        run.fail("layer self times cover less than 95% of traced cold_s",
                 0, attempted=False)
    if run.workload in COVERAGE and layers["isa.full_calls"]:
        run.fail(f"{layers['isa.full_calls']} fault runs fell back to full "
                 "execution", 0, attempted=False)
    if run.workload == "coverage-lockstep" and (
            layers["core.ooo_hooked_rows"] or layers["core.ooo_bare_rows"]):
        run.fail("lockstep coverage ran the OoO timing model", 0,
                 attempted=False)
    return {name: (value, layer_unit(name))
            for name, value in sorted(layers.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--campaign-seed", type=int, default=None,
                        help="run every round on this campaign seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"run-{os.getpid()}"
    run = Run(args.workload, work)
    seeds = run.expected["seeds"]

    def seed_of(round_index: int) -> int:
        if args.campaign_seed is not None:
            return args.campaign_seed
        return (args.seed + round_index) % seeds

    try:
        # compile the sources once, outside every measured pass
        subprocess.run([sys.executable, "-c", "import repro.__main__"],
                       cwd=ROOT, env=dict(run.env, PYTHONPATH="src"),
                       check=True, timeout=120)
        rounds = max(MIN_ROUNDS, args.seconds // ROUND_SECONDS)
        metrics = run_traced(run, seed_of(0)) if args.trace else \
            run_untraced(run, rounds, seed_of)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.check_digests()
    if not metrics:
        run.fail("no complete set of passes", 0, attempted=False)

    print(f"workload {args.workload}, seed {args.seed}: outcomes of the "
          f"last pass {run.outcomes}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {run.failed}/{max(run.attempted, 1)}")
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
