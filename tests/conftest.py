"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.common.config import default_config
from repro.common.records import canonical_json
from repro.core.timing import TIMING_SPLICE_ENV
from repro.detection.faults import FaultSite, TransientFault
from repro.isa.blocks import BLOCK_EXEC_ENV
from repro.isa.executor import LOAD, Trace, execute_program
from repro.isa.instructions import Opcode
from repro.isa.program import Program, ProgramBuilder
from repro.schemes.base import FORK_INJECTION_ENV
from repro.workloads.suite import benchmark_trace

#: Every fast-path kill switch set: the reference path.
REFERENCE_PATH_ENV = {FORK_INJECTION_ENV: "0", TIMING_SPLICE_ENV: "0",
                      BLOCK_EXEC_ENV: "0"}


def build_rmw_loop(iterations: int = 400, array_words: int = 64,
                   name: str = "rmw") -> Program:
    """A small read-modify-write loop: the workhorse test program.

    Per iteration: index arithmetic, one load, one add, one store, one
    backward branch — exercises every detection path (loads, stores,
    checkpoints) with a short, predictable body.
    """
    b = ProgramBuilder(name)
    data = b.alloc_words(array_words, list(range(array_words)))
    b.emit(Opcode.MOVI, rd=1, imm=data)
    b.emit(Opcode.MOVI, rd=2, imm=0)
    b.emit(Opcode.MOVI, rd=3, imm=iterations)
    b.label("loop")
    b.emit(Opcode.ANDI, rd=4, rs1=2, imm=array_words - 1)
    b.emit(Opcode.SLLI, rd=4, rs1=4, imm=3)
    b.emit(Opcode.ADD, rd=5, rs1=1, rs2=4)
    b.emit(Opcode.LD, rd=6, rs1=5, imm=0)
    b.emit(Opcode.ADDI, rd=6, rs1=6, imm=1)
    b.emit(Opcode.ST, rs2=6, rs1=5, imm=0)
    b.emit(Opcode.ADDI, rd=2, rs1=2, imm=1)
    b.emit(Opcode.BLT, rs1=2, rs2=3, target="loop")
    b.emit(Opcode.HALT)
    return b.build()


def build_alu_loop(iterations: int = 600, name: str = "alu") -> Program:
    """A compute-only loop (no loads/stores except one final store):
    exercises timeout-driven segment closure."""
    b = ProgramBuilder(name)
    out = b.alloc_words(1)
    b.emit(Opcode.MOVI, rd=1, imm=1)
    b.emit(Opcode.MOVI, rd=2, imm=0)
    b.emit(Opcode.MOVI, rd=3, imm=iterations)
    b.label("loop")
    b.emit(Opcode.ADD, rd=1, rs1=1, rs2=1)
    b.emit(Opcode.XORI, rd=1, rs1=1, imm=0x5A5A)
    b.emit(Opcode.SRLI, rd=4, rs1=1, imm=3)
    b.emit(Opcode.ADD, rd=1, rs1=1, rs2=4)
    b.emit(Opcode.ADDI, rd=2, rs1=2, imm=1)
    b.emit(Opcode.BLT, rs1=2, rs2=3, target="loop")
    b.emit(Opcode.MOVI, rd=5, imm=out)
    b.emit(Opcode.ST, rs2=1, rs1=5, imm=0)
    b.emit(Opcode.HALT)
    return b.build()


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def rmw_program():
    return build_rmw_loop()


@pytest.fixture(scope="session")
def rmw_trace(rmw_program):
    return execute_program(rmw_program)


@pytest.fixture(scope="session")
def alu_program():
    return build_alu_loop()


@pytest.fixture(scope="session")
def alu_trace(alu_program):
    return execute_program(alu_program)


#: An activated fault (workload, fault) the detection scheme classifies
#: as masked: nothing it changed is architecturally visible at the end.
MASKED_FAULT = ("bitcount", TransientFault(FaultSite.RESULT, seq=7482,
                                           bit=37))


def mid_trace_faults(benchmark: str) -> tuple[TransientFault, ...]:
    """Faults in the middle of a suite workload's small-scale trace, at
    sites that mostly fire: a detected one leaves many rows after the
    point where its verdict is final."""
    n = len(benchmark_trace(benchmark, "small"))
    return (TransientFault(FaultSite.RESULT, seq=n // 2, bit=4),
            TransientFault(FaultSite.STORE_VALUE, seq=n // 3, bit=9),
            TransientFault(FaultSite.BRANCH, seq=(2 * n) // 3))


def never_firing_faults(golden: Trace, start: int) -> list[TransientFault]:
    """A LOAD_ADDR fault on a row without a load and a BRANCH fault on a
    row that is no conditional branch, both at or after ``start``."""
    off, kinds = golden.mem_off, golden.mem_kind
    non_load = next(i for i in range(start, len(golden))
                    if LOAD not in kinds[off[i]:off[i + 1]])
    non_branch = next(i for i in range(start, len(golden))
                      if golden.takens[i] == -1)
    return [TransientFault(FaultSite.LOAD_ADDR, seq=non_load, bit=5),
            TransientFault(FaultSite.BRANCH, seq=non_branch)]


def tripwire(what: str):
    """A stand-in that fails the test when ``what`` runs."""
    def fail(*_args, **_kwargs):
        raise AssertionError(f"{what} ran")
    return fail


def edit_header_digit(path, field: str, value: int) -> None:
    """Same-length edit of the first digit of the integer ``field``
    (whose value is ``value``) in a golden-trace envelope's header; the
    envelope's CRC is left as it was."""
    buf = path.read_bytes()
    digits = str(value)
    edited = str(int(digits[0]) % 9 + 1) + digits[1:]
    old = f'"{field}":{digits}'.encode()
    assert buf.count(old) == 1
    path.write_bytes(buf.replace(old, f'"{field}":{edited}'.encode()))


@pytest.fixture()
def verdict_paths(monkeypatch):
    """runner(fn) -> canonical JSON of ``fn()`` on three paths: every
    fast path on, the timing splice off, and the reference path."""
    def runner(fn):
        results = []
        for env in ({}, {TIMING_SPLICE_ENV: "0"}, REFERENCE_PATH_ENV):
            for name in REFERENCE_PATH_ENV:
                monkeypatch.delenv(name, raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            results.append(canonical_json(fn()))
        return results
    return runner
