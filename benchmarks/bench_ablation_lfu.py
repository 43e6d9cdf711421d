"""Ablation: the load forwarding unit's window of vulnerability (§IV-C).

With the LFU, a load value corrupted in the main core's physical register
*after* the cache access is still logged correctly (the LFU duplicated it
at access time), so the checker recomputes with good data and catches the
corruption downstream.  Without the LFU (commit-time forwarding from the
register file), the corrupted value reaches the log too — the checker
replays with the *same wrong input* and, unless the value also feeds an
address or crosses a checkpoint in a detectable way, the error escapes.

This bench injects LOAD_VALUE faults at many points and reports the
detection rate with the LFU on vs off.
"""

from dataclasses import replace

from repro.common.config import default_config
from repro.common.rng import derive
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.detection.system import run_with_detection
from repro.isa.executor import execute_program, LOAD
from repro.workloads.suite import build_benchmark


def _load_seqs(trace, count, seed_salt):
    """Pick dynamic indices of load instructions, deterministically."""
    kinds, off = trace.mem_kind, trace.mem_off
    loads = [seq for seq in range(len(trace))
             if LOAD in kinds[off[seq]:off[seq + 1]]]
    rng = derive(0, seed_salt)
    rng.shuffle(loads)
    return loads[:count]


def run_campaign(lfu_enabled: bool, trials: int = 12) -> float:
    """Fraction of injected load-value faults detected."""
    cfg = default_config()
    cfg = replace(cfg, detection=replace(cfg.detection,
                                         load_forwarding_unit=lfu_enabled))
    program = build_benchmark("freqmine", "small")
    clean = execute_program(program)
    detected = 0
    for seq in _load_seqs(clean, trials, "lfu-ablation"):
        injector = FaultInjector(
            [TransientFault(FaultSite.LOAD_VALUE, seq=seq, bit=7)])
        trace = execute_program(program, fault_injector=injector)
        if not injector.activations:
            continue
        result = run_with_detection(trace, cfg)
        if result.report.detected:
            detected += 1
    return detected / trials


def test_ablation_lfu(benchmark, emit):
    def campaign():
        return run_campaign(True), run_campaign(False)

    with_lfu, without_lfu = benchmark.pedantic(campaign, rounds=1,
                                               iterations=1)
    text = (
        "Ablation: load forwarding unit (LOAD_VALUE faults)\n\n"
        f"  detection rate with LFU:    {100 * with_lfu:5.1f}%\n"
        f"  detection rate without LFU: {100 * without_lfu:5.1f}%\n\n"
        "  (without the LFU the corrupted value is forwarded into the\n"
        "   log, so the checker replays with the same wrong input)"
    )
    emit("ablation_lfu", text)
    assert with_lfu == 1.0, "LFU must close the vulnerability window"
    assert without_lfu < with_lfu, "removing the LFU must lose coverage"
