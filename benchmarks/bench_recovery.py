"""Extension: rollback-recovery cost (the paper's future work, measured).

The paper's detection scheme lets faulty stores escape to memory and
names checkpoint rollback as the correction companion.  This bench runs
a recovery campaign grid through the campaign engine and measures what
correction costs in practice: how far execution rolls back and how much
work is re-executed, as a function of where the fault struck.
"""

from repro.harness.campaign import CampaignEngine, recovery_grid


def run_experiment(trials: int = 16):
    grid = recovery_grid(["freqmine"], trials=trials, scale="small", seed=0)
    records = CampaignEngine(workers=1).run(grid).typed_records()
    activated = [r for r in records if r.activated]
    total = records[0].trace_len if records else 0
    return total, activated


def test_recovery_cost(benchmark, emit):
    total, rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = ["Extension: rollback-recovery cost (freqmine)", "",
             f"  trace length: {total} instructions", ""]
    lines.append(f"  {'fault seq':>10} {'rollback seq':>13} "
                 f"{'replayed':>9} {'ok':>4}")
    for record in rows:
        lines.append(f"  {record.seq:>10} {record.rollback_seq:>13} "
                     f"{record.replayed_instructions:>9} "
                     f"{'yes' if record.state_correct else 'NO':>4}")
    emit("recovery_cost", "\n".join(lines))

    assert rows, "no fault activated"
    for record in rows:
        assert record.detected
        assert record.state_correct
        # rollback lands before the fault but within one segment's reach
        assert record.rollback_seq <= record.seq
        # work wasted is bounded by the distance from the rollback seq
        # (the failing segment's start) to the end of the run
        assert record.replayed_instructions <= total
