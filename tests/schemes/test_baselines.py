"""Tests for the comparison schemes' timing models."""

from repro.schemes.lockstep import run_lockstep
from repro.schemes.rmt import rmt_config, run_rmt
from repro.schemes.unprotected import run_baseline


class TestLockstep:
    def test_negligible_slowdown(self, rmw_trace, config):
        result = run_lockstep(rmw_trace, config)
        assert 1.0 <= result.slowdown_vs_unprotected < 1.01

    def test_doubled_area_energy(self, rmw_trace, config):
        result = run_lockstep(rmw_trace, config)
        assert result.area_overhead == 1.0
        assert result.energy_overhead == 1.0

    def test_cycles_scale_detection_latency(self, rmw_trace, config):
        result = run_lockstep(rmw_trace, config)
        # a few cycles at 3.2 GHz: single-digit nanoseconds
        assert 0 < result.detection_latency_ns < 10


def build_ilp_loop(iterations=800):
    """A loop of independent operations: ILP-rich, so sharing the core
    with a redundant thread actually costs throughput (a dependent chain
    would hide the sharing entirely)."""
    from repro.isa.instructions import Opcode
    from repro.isa.program import ProgramBuilder
    b = ProgramBuilder("ilp")
    b.emit(Opcode.MOVI, rd=30, imm=0)
    b.emit(Opcode.MOVI, rd=31, imm=iterations)
    b.label("loop")
    for i in range(9):
        b.emit(Opcode.ADDI, rd=1 + (i % 8), rs1=0, imm=i)
    b.emit(Opcode.ADDI, rd=30, rs1=30, imm=1)
    b.emit(Opcode.BLT, rs1=30, rs2=31, target="loop")
    b.emit(Opcode.HALT)
    return b.build()


class TestRMT:
    def test_meaningful_slowdown_on_ilp_code(self, config):
        from repro.isa.executor import execute_program
        trace = execute_program(build_ilp_loop())
        result = run_rmt(trace, config)
        assert result.slowdown_vs_unprotected > 1.10

    def test_memory_bound_hides_contention(self, config):
        from tests.conftest import build_rmw_loop
        from repro.isa.executor import execute_program
        ilp_trace = execute_program(build_ilp_loop())
        mem_trace = execute_program(
            build_rmw_loop(iterations=400, array_words=1 << 15))
        ilp = run_rmt(ilp_trace, config)
        mem = run_rmt(mem_trace, config)
        assert mem.slowdown_vs_unprotected < ilp.slowdown_vs_unprotected

    def test_small_area_overhead(self, rmw_trace, config):
        result = run_rmt(rmw_trace, config)
        assert result.area_overhead < 0.10

    def test_no_hard_fault_coverage(self, rmw_trace, config):
        assert not run_rmt(rmw_trace, config).covers_hard_faults

    def test_rmt_config_halves_window(self, config):
        shared = rmt_config(config).main_core
        assert shared.rob_entries == config.main_core.rob_entries // 2
        assert shared.fetch_width < config.main_core.fetch_width

    def test_detection_latency_window_scale(self, rmw_trace, config):
        result = run_rmt(rmw_trace, config)
        assert 0 < result.detection_latency_ns < 100


class TestUnprotected:
    def test_baseline_fresh_state(self, rmw_trace, config):
        a = run_baseline(rmw_trace, config)
        b = run_baseline(rmw_trace, config)
        assert a.cycles == b.cycles  # no cross-run cache pollution
