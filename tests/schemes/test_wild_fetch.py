"""A fault that sends control flow outside the program ends classified.

A flipped bit in a link register makes the ``JALR`` that returns
through it fetch past the end of the program.  With a fault injector
attached, that fetch is a trap like an illegal access: the faulty run
ends ``crashed`` and every scheme classifies it, on the fork path and
on full re-execution alike, instead of a worker dying on the fetch
error.  (Fails before out-of-range fetches were classified: both
executors, and the jobs of every scheme that runs the faulty program to
its end, raised ``AssemblyError``.)
"""

from __future__ import annotations

import pytest

from repro.common.errors import AssemblyError
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.harness import campaign
from repro.harness.campaign import JobSpec, execute_job
from repro.isa.executor import execute_forked, execute_program
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder
from repro.schemes.base import FORK_INJECTION_ENV


def build_call_program():
    """``JAL x1, func; MOVI x2, 42; HALT; func: MOVI x3, 7; MOVI x4, 8;
    JALR x0, x1, 0`` — six rows, one call and its return."""
    b = ProgramBuilder("wild-fetch")
    b.emit(Opcode.JAL, rd=1, target="func")
    b.emit(Opcode.MOVI, rd=2, imm=42)
    b.emit(Opcode.HALT)
    b.label("func")
    b.emit(Opcode.MOVI, rd=3, imm=7)
    b.emit(Opcode.MOVI, rd=4, imm=8)
    b.emit(Opcode.JALR, rd=0, rs1=1, imm=0)
    return b.build()


#: the link value 1 becomes 9 (bit 3) or 2**40 + 1 (bit 40): both past
#: the program's six rows
LINK_FAULTS = [TransientFault(FaultSite.RESULT, seq=0, bit=bit)
               for bit in (3, 40)]

#: what each scheme makes of a run that traps on the wild fetch
OUTCOMES = {"unprotected": "escaped", "lockstep": "detected",
            "rmt": "detected", "detection": "detected"}


@pytest.fixture()
def golden(monkeypatch):
    """The clean run of the call program, served to campaign jobs in
    place of the ``stream`` benchmark's trace."""
    trace = execute_program(build_call_program())
    monkeypatch.setattr(campaign, "benchmark_trace",
                        lambda _name, _scale="default": trace)
    return trace


@pytest.mark.parametrize("fault", LINK_FAULTS, ids=lambda f: f"bit{f.bit}")
def test_executors_end_the_run_crashed(golden, fault):
    wild = 1 ^ (1 << fault.bit)  # the corrupted return address
    for faulty in (execute_forked(golden, FaultInjector([fault])),
                   execute_program(golden.program,
                                   fault_injector=FaultInjector([fault]))):
        assert faulty.crashed and not faulty.halted
        assert list(faulty.pcs) == [0, 3, 4, 5]
        assert faulty.final_next_pc == wild


def test_fault_free_wild_fetch_still_raises():
    b = ProgramBuilder("runs-off")
    b.emit(Opcode.MOVI, rd=1, imm=99)
    b.emit(Opcode.JALR, rd=0, rs1=1, imm=0)
    with pytest.raises(AssemblyError):
        execute_program(b.build())


@pytest.mark.parametrize("fork", ["1", "0"])
@pytest.mark.parametrize("scheme", sorted(OUTCOMES))
@pytest.mark.parametrize("fault", LINK_FAULTS, ids=lambda f: f"bit{f.bit}")
def test_fault_jobs_classify(golden, monkeypatch, fork, scheme, fault):
    monkeypatch.setenv(FORK_INJECTION_ENV, fork)
    record = execute_job(JobSpec("fault", "stream", "small", fault=fault,
                                 scheme=scheme))
    assert record["activated"]
    assert record["outcome"] == OUTCOMES[scheme]


@pytest.mark.parametrize("fork", ["1", "0"])
def test_recovery_job_recovers(golden, monkeypatch, fork):
    monkeypatch.setenv(FORK_INJECTION_ENV, fork)
    record = execute_job(JobSpec("recovery", "stream", "small",
                                 fault=LINK_FAULTS[0], scheme="detection"))
    assert record["detected"] and record["recovered"]
    assert record["state_correct"]
