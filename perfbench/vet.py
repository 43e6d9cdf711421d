"""Record the digests and outcome counts of the benchmark's campaign seeds.

    python3 perfbench/vet.py [--seeds 16]

``run.py`` maps ``--seed`` onto campaign seeds ``0 .. seeds - 1``; seed
``seeds`` is the held-out seed, kept out of every run for checking
claims later.  For each of them (and once for the seed-independent
figures) a cold pass runs in this process, and its records digest and
outcome counts are written into ``expected.json``; the file's other
entries are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import passes  # noqa: E402

EXPECTED = HERE / "expected.json"


def cold_pass(workload: str, seed: int) -> tuple[str, dict]:
    cache = tempfile.mkdtemp(prefix="vet-", dir=HERE.parent / ".perfbench")
    try:
        engine, texts = passes.run_workload(workload, seed, cache)
    finally:
        shutil.rmtree(cache)
    return (passes.digest_of(engine.collected, texts),
            passes.outcome_counts(workload, engine.collected))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args(argv)
    (HERE.parent / ".perfbench").mkdir(exist_ok=True)

    digests: dict[str, dict] = {}
    outcomes: dict[str, dict] = {}
    digest, counts = cold_pass("figures", 0)
    digests["figures"] = {"any": digest}
    outcomes["figures"] = {"any": counts}
    for workload in passes.COVERAGE:
        digests[workload], outcomes[workload] = {}, {}
        for seed in range(args.seeds + 1):
            digest, counts = cold_pass(workload, seed)
            print(f"{workload} seed {seed}: {digest[:16]} {counts}",
                  flush=True)
            digests[workload][str(seed)] = digest
            outcomes[workload][str(seed)] = counts

    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data.update({
        "seeds": args.seeds,
        "held_out": args.seeds,
        "digests": digests,
        "outcomes": outcomes,
    })
    EXPECTED.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
