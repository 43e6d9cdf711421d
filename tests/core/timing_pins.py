"""Digests of timed runs, and the pinned values they must reproduce.

A pin covers one program under one configuration:

* ``bare`` — the :class:`CoreResult` of a hookless OoO run;
* ``hooked`` — the :class:`CoreResult` plus every field of the
  :class:`DetectionReport` of a run under :class:`ParallelErrorDetection`
  (events, delays, closes by reason, log-full and checkpoint stalls,
  checker busy ticks, the all-checks-done tick);
* ``segments`` — every :class:`SegmentTiming` the in-order checker models
  returned during that hooked run, in call order, with the core id and
  start cycle of each call.

Two configurations are pinned: the paper's default, and ``stress``,
which takes every segment-close path and the commit gate: a log of seven
entries per segment split over two checker cores (FULL closes, macro-op
overflow on the pair ops of :func:`build_pair_loop`, and commit-gate
stalls), a 60-instruction timeout, an interrupt every 211 commits, the
load forwarding unit off, and a bit flipped in checkpoint 9, so every
run reports detection events.

The values were recorded before the timing loops were predecoded and
the detection hook learned to skip rows; they are shared by
``test_timing_pins.py`` and ``benchmarks/bench_timing.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace

from repro.common.config import default_config
from repro.core.inorder_core import InOrderCoreModel
from repro.core.ooo_core import OoOCore
from repro.detection.faults import FaultSite, TransientFault
from repro.detection.system import DetectionReport, ParallelErrorDetection
from repro.isa.executor import execute_program
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder
from repro.workloads.suite import BENCHMARKS, benchmark_trace

#: Rows between the interrupts of the stress configuration.
STRESS_INTERRUPT_EVERY = 211

#: The extra pinned program: the only one with two-entry (pair) ops.
PAIR_LOOP = "pair-loop"


def stress_config():
    base = default_config()
    return replace(
        base,
        checker=replace(base.checker, num_cores=2),
        detection=replace(base.detection, log_bytes=2 * 7 * 16,
                          instruction_timeout=60,
                          load_forwarding_unit=False),
    ).validate()


CONFIGS = {"default": default_config, "stress": stress_config}


def build_pair_loop(iterations: int = 300):
    """A loop of six log entries per iteration (a pair load, a load, a
    RDRAND, a pair store): against a seven-entry segment, a pair op meets
    a segment with one free entry every few iterations."""
    b = ProgramBuilder(PAIR_LOOP)
    data = b.alloc_words(64, list(range(64)))
    b.emit(Opcode.MOVI, rd=1, imm=data)
    b.emit(Opcode.MOVI, rd=2, imm=0)
    b.emit(Opcode.MOVI, rd=3, imm=iterations)
    b.label("loop")
    b.emit(Opcode.ANDI, rd=4, rs1=2, imm=31)
    b.emit(Opcode.SLLI, rd=4, rs1=4, imm=3)
    b.emit(Opcode.ADD, rd=5, rs1=1, rs2=4)
    b.emit(Opcode.LDP, rd=6, rd2=7, rs1=5, imm=0)
    b.emit(Opcode.ADD, rd=6, rs1=6, rs2=7)
    b.emit(Opcode.LD, rd=8, rs1=5, imm=16)
    b.emit(Opcode.RDRAND, rd=9)
    b.emit(Opcode.XOR, rd=8, rs1=8, rs2=9)
    b.emit(Opcode.STP, rs2=6, rs3=8, rs1=5, imm=0)
    b.emit(Opcode.ADDI, rd=2, rs1=2, imm=1)
    b.emit(Opcode.BLT, rs1=2, rs2=3, target="loop")
    b.emit(Opcode.HALT)
    return b.build()


PROGRAMS = tuple(BENCHMARKS) + (PAIR_LOOP,)


def pinned_trace(name: str):
    if name == PAIR_LOOP:
        return execute_program(build_pair_loop())
    return benchmark_trace(name, "small")


def detection_kwargs(config_name: str, trace) -> dict:
    """The interrupts and the corrupted checkpoint of a stress run."""
    if config_name != "stress":
        return {}
    return {
        "interrupt_seqs": list(range(STRESS_INTERRUPT_EVERY, len(trace),
                                     STRESS_INTERRUPT_EVERY)),
        "checkpoint_faults": [TransientFault(FaultSite.CHECKPOINT, seq=9,
                                             reg="x2", bit=3)],
    }


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def report_fields(report: DetectionReport) -> dict:
    return {
        "events": [[e.error.kind.value, e.error.segment_index,
                    e.error.entry_index, e.error.detail, e.detect_tick,
                    e.segment_close_tick] for e in report.events],
        "delays_ns": report.delays_ns.values,
        "segments_checked": report.segments_checked,
        "entries_checked": report.entries_checked,
        "closes_by_reason": report.closes_by_reason,
        "log_full_stall_cycles": report.log_full_stall_cycles,
        "checkpoint_stall_cycles": report.checkpoint_stall_cycles,
        "checkpoints_taken": report.checkpoints_taken,
        "checker_busy_ticks": report.checker_busy_ticks,
        "all_checks_done_tick": report.all_checks_done_tick,
    }


def hooked_digest(core_result, report: DetectionReport) -> str:
    return _digest([asdict(core_result), report_fields(report)])


def bare_digest(core_result) -> str:
    return _digest(asdict(core_result))


def segments_digest(calls: list) -> str:
    """``calls``: :attr:`SegmentRecorder.calls`."""
    return _digest([[core_id, start, timing.entry_check_cycles,
                     timing.total_cycles]
                    for core_id, _steps, start, timing in calls])


class SegmentRecorder:
    """Context manager recording every ``run_segment`` call (its model's
    core id, the steps, the start cycle and the result) in call order."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def __enter__(self) -> "SegmentRecorder":
        original = self._original = InOrderCoreModel.run_segment
        calls = self.calls

        def recording(model, steps, metas, start_cycle=0):
            timing = original(model, steps, metas, start_cycle)
            calls.append((model.core_id, steps, start_cycle, timing))
            return timing

        InOrderCoreModel.run_segment = recording
        return self

    def __exit__(self, *exc) -> None:
        InOrderCoreModel.run_segment = self._original


def hooked_run(name: str, config_name: str):
    """``(CoreResult, DetectionReport, segment calls)`` of one hooked run."""
    trace = pinned_trace(name)
    config = CONFIGS[config_name]()
    hook = ParallelErrorDetection(config, trace.program,
                                  **detection_kwargs(config_name, trace))
    with SegmentRecorder() as recorder:
        result = OoOCore(config).run(trace, hook=hook)
    return result, hook.report, recorder.calls


#: (program, config) -> digests; ``bare`` is pinned under the default
#: configuration only (the stress configuration changes no core
#: parameter).
PINS: dict[tuple[str, str], dict[str, str]] = {
    ("randacc", "default"): {
        "bare": "034ba6eac952dff1",
        "hooked": "72043125751e4e6e",
        "segments": "bed18a21e73d33bf",
    },
    ("stream", "default"): {
        "bare": "371a16e31db78e4c",
        "hooked": "8f0ac14cbf4e065a",
        "segments": "a4affdc8127e70f7",
    },
    ("bitcount", "default"): {
        "bare": "96336fe9b5aaa99f",
        "hooked": "83b77514e93c6fc1",
        "segments": "0020d67da5a5d27c",
    },
    ("blackscholes", "default"): {
        "bare": "2d84623fa0010e1d",
        "hooked": "569c30ddd788b8b1",
        "segments": "e15cff53c59eea25",
    },
    ("fluidanimate", "default"): {
        "bare": "3f2d83db7df4df35",
        "hooked": "65acb2a6a3dfd344",
        "segments": "d83a681d9ecbea26",
    },
    ("swaptions", "default"): {
        "bare": "4776fd92c5a66d41",
        "hooked": "bdf4b532e9905c15",
        "segments": "a430cd510ef9d855",
    },
    ("freqmine", "default"): {
        "bare": "93cfbcfed46bdfd9",
        "hooked": "988cfeaa62a6e4e3",
        "segments": "1d305985b38351ef",
    },
    ("bodytrack", "default"): {
        "bare": "b063d3c1f30b0389",
        "hooked": "49c9b7eb7989f6ff",
        "segments": "e888598bbe819053",
    },
    ("facesim", "default"): {
        "bare": "f99ed4b82d0077b5",
        "hooked": "fb115a33c013d677",
        "segments": "41d4499ac69607ec",
    },
    ("pair-loop", "default"): {
        "bare": "6a375cf4d0900e2c",
        "hooked": "85839d5fa4014f40",
        "segments": "6bad55d41d22105f",
    },
    ("randacc", "stress"): {
        "hooked": "7ad6dea176ad3568",
        "segments": "037504abd55e2803",
    },
    ("stream", "stress"): {
        "hooked": "e092ba332028c2d8",
        "segments": "16ed149e09249898",
    },
    ("bitcount", "stress"): {
        "hooked": "c4d2360753b60fc9",
        "segments": "909389e0de80ed2d",
    },
    ("blackscholes", "stress"): {
        "hooked": "28a7d3b07059a395",
        "segments": "1b705a3ededc430e",
    },
    ("fluidanimate", "stress"): {
        "hooked": "4c739b4337b8172b",
        "segments": "98a8ee638f83c68a",
    },
    ("swaptions", "stress"): {
        "hooked": "abe4d62d6b74370c",
        "segments": "87cd3e3d37a4a522",
    },
    ("freqmine", "stress"): {
        "hooked": "40c714814560a131",
        "segments": "0ac7f51181ab8cc3",
    },
    ("bodytrack", "stress"): {
        "hooked": "bd5a3caeed531d9b",
        "segments": "2e0bc26e6973e401",
    },
    ("facesim", "stress"): {
        "hooked": "969549848e78337c",
        "segments": "e07db8372808332a",
    },
    ("pair-loop", "stress"): {
        "hooked": "1b98bbefd305fc09",
        "segments": "5d643c25bc725566",
    },
}
